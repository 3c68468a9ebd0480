/* Max-min fair rates of a FlowSet by progressive filling.
 *
 * The compiled twin of repro.network.solver.solve_python, on the FlowSet's
 * own arrays: per-slot active / has_links flags and rate caps, the flat
 * (entry_link, entry_flow) incidence and the link capacities.  Each round
 * replays the NumPy round operation for operation: the increment is the
 * NaN-propagating min over crossed links of remaining / count, then over
 * the residual cap - fill of unfrozen capped flows; capped flows within
 * cap_eps of the increment freeze; the increment clamps at 0; every
 * crossed link pays remaining -= inc * count and clamps at 0; unfrozen
 * flows crossing a crossed link left within saturation_eps freeze; a round
 * that freezes nothing freezes everything.  The arithmetic is the same IEEE
 * double arithmetic, so every rate is bit-identical.  Build flags must not
 * relax floating point (no contraction of inc * count into the
 * subtraction).
 *
 * Instead of a bincount per round, crossing counts are kept per link and
 * decremented as flows freeze; link -> flow and flow -> link lists are
 * built once per call from the incidence.
 *
 * rates (pool doubles) receives 0 for inactive slots, the rate cap for
 * link-free flows and the fair rate for the rest.  Returns 0, or -2 when
 * scratch allocation fails.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { IDLE, UNFROZEN, FREEZING, FROZEN };

/* numpy's min: any NaN makes the result NaN. */
static inline double nan_min(double acc, double x)
{
    return (x < acc || x != x) ? x : acc;
}

int64_t solve(
    int64_t pool,
    int64_t entries,
    int64_t num_links,
    double saturation_eps,
    double cap_eps,
    const uint8_t *active,
    const uint8_t *has_links,
    const double *rate_caps,
    const int32_t *entry_link,
    const int32_t *entry_flow,
    const double *link_caps,
    double *rates)
{
    int64_t flows = 0;
    for (int64_t s = 0; s < pool; s++) {
        rates[s] = (active[s] && !has_links[s]) ? rate_caps[s] : 0.0;
        flows += active[s] & has_links[s];
    }
    if (flows == 0) {
        return 0;
    }

    /* One zeroed scratch block: per-link counts, CSR starts and crossed
     * list, per-slot CSR starts and state, CSR cursors, both adjacency
     * lists and the per-flow work lists. */
    int64_t *count = calloc(
        4 * (size_t)num_links + 3 * (size_t)pool + 2 * (size_t)entries
        + 2 * (size_t)flows + 2, sizeof(int64_t));
    double *remaining = malloc((size_t)num_links * sizeof(double));
    if (!count || !remaining) {
        free(count);
        free(remaining);
        return -2;
    }
    int64_t *link_start = count + num_links;          /* num_links + 1 */
    int64_t *crossed = link_start + num_links + 1;    /* num_links */
    int64_t *flow_start = crossed + num_links;        /* pool + 1 */
    int64_t *state = flow_start + pool + 1;           /* pool */
    int64_t *cursor = state + pool;                   /* pool + num_links */
    int64_t *link_flows = cursor + pool + num_links;  /* entries */
    int64_t *flow_links = link_flows + entries;       /* entries */
    int64_t *capped = flow_links + entries;           /* flows */
    int64_t *freezing = capped + flows;               /* flows */

    /* Both adjacency lists by counting sort over the incidence. */
    for (int64_t e = 0; e < entries; e++) {
        count[entry_link[e]]++;
        flow_start[entry_flow[e] + 1]++;
    }
    for (int64_t l = 0; l < num_links; l++) {
        link_start[l + 1] = link_start[l] + count[l];
    }
    for (int64_t s = 0; s < pool; s++) {
        flow_start[s + 1] += flow_start[s];
    }
    memcpy(cursor, flow_start, (size_t)pool * sizeof(int64_t));
    memcpy(cursor + pool, link_start, (size_t)num_links * sizeof(int64_t));
    for (int64_t e = 0; e < entries; e++) {
        int64_t l = entry_link[e];
        int64_t f = entry_flow[e];
        link_flows[cursor[pool + l]++] = f;
        flow_links[cursor[f]++] = l;
    }

    int64_t num_capped = 0;
    for (int64_t s = 0; s < pool; s++) {
        if (active[s] && has_links[s]) {
            state[s] = UNFROZEN;
            if (isfinite(rate_caps[s])) {
                capped[num_capped++] = s;
            }
        }
    }
    memcpy(remaining, link_caps, (size_t)num_links * sizeof(double));
    double fill = 0.0;
    int64_t unfrozen = flows;

    /* Crossed links (count > 0).  Counts only fall, so a link that drops
     * out never returns, and its remaining capacity is never read again. */
    int64_t num_crossed = 0;
    for (int64_t l = 0; l < num_links; l++) {
        if (count[l] > 0) {
            crossed[num_crossed++] = l;
        }
    }

    for (int64_t round = 0; round < flows + num_links + 2; round++) {
        int64_t live_links = 0;
        for (int64_t i = 0; i < num_crossed; i++) {
            if (count[crossed[i]] > 0) {
                crossed[live_links++] = crossed[i];
            }
        }
        num_crossed = live_links;
        double inc = INFINITY;
        for (int64_t i = 0; i < num_crossed; i++) {
            int64_t l = crossed[i];
            inc = nan_min(inc, remaining[l] / (double)count[l]);
        }
        int64_t frozen = 0;
        /* Capped flows still unfrozen, compacted in place. */
        int64_t live_capped = 0;
        for (int64_t i = 0; i < num_capped; i++) {
            if (state[capped[i]] == UNFROZEN) {
                capped[live_capped++] = capped[i];
            }
        }
        num_capped = live_capped;
        if (num_capped > 0) {
            double res_min = INFINITY;
            for (int64_t i = 0; i < num_capped; i++) {
                res_min = nan_min(res_min, rate_caps[capped[i]] - fill);
            }
            if (res_min < inc) {
                inc = res_min;
            }
            for (int64_t i = 0; i < num_capped; i++) {
                int64_t f = capped[i];
                if (rate_caps[f] - fill <= inc + cap_eps) {
                    state[f] = FREEZING;
                    freezing[frozen++] = f;
                }
            }
        }
        if (inc < 0.0) {
            inc = 0.0;
        }

        fill += inc;
        for (int64_t i = 0; i < num_crossed; i++) {
            int64_t l = crossed[i];
            double r = remaining[l] - inc * (double)count[l];
            remaining[l] = r < 0.0 ? 0.0 : r;
            if (remaining[l] <= saturation_eps) {
                for (int64_t k = link_start[l]; k < link_start[l + 1]; k++) {
                    int64_t f = link_flows[k];
                    if (state[f] == UNFROZEN) {
                        state[f] = FREEZING;
                        freezing[frozen++] = f;
                    }
                }
            }
        }
        if (frozen == 0) {
            /* Numerical corner: freeze everything to guarantee termination. */
            for (int64_t s = 0; s < pool; s++) {
                if (state[s] == UNFROZEN) {
                    state[s] = FREEZING;
                    freezing[frozen++] = s;
                }
            }
        }
        for (int64_t i = 0; i < frozen; i++) {
            int64_t f = freezing[i];
            rates[f] = fill;
            state[f] = FROZEN;
            for (int64_t k = flow_start[f]; k < flow_start[f + 1]; k++) {
                count[flow_links[k]]--;
            }
        }
        unfrozen -= frozen;
        if (unfrozen == 0) {
            break;
        }
    }

    free(count);
    free(remaining);
    return 0;
}

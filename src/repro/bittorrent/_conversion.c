/* Fragment conversion for one control step of the broadcast loop.
 *
 * The compiled twin of repro.bittorrent.conversion.bind_python: every
 * ready pipe event of the step, in order, turns its byte surplus into
 * fragments by random-first / rarest-first selection.  Random draws go
 * through numpy's own random_bounded_uint64 on the caller's bit generator,
 * the routine behind Generator.integers(0, size), so the stream is consumed
 * exactly as the Python loop consumes it; the surplus arithmetic is the same
 * IEEE double subtraction.  Build flags must not relax floating point.
 *
 * Bitfields are the swarm's (hosts, fragments) bool matrices; availability
 * and held are per-fragment and per-host int64 counters; wanted is the
 * (hosts, hosts) int64 interest matrix, or NULL when the caller recomputes
 * it by matmul.  All of them are updated in place.
 *
 * Returns the number of fragments written to received (offsets[e] is where
 * event e's fragments start, offsets[events] the total), -1 when received
 * would overflow its capacity, -2 when scratch allocation fails.
 */
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"

int64_t convert_step(
    bitgen_t *bitgen,
    int64_t events,
    const int64_t *up,
    const int64_t *down,
    double *surplus,
    int64_t *held,
    uint8_t *have,
    uint8_t *lack,
    int64_t *availability,
    int64_t *wanted,
    int64_t hosts,
    int64_t num_fragments,
    double fragment_size,
    int64_t threshold,
    int64_t *received,
    int64_t capacity,
    int64_t *offsets)
{
    int64_t *candidates = malloc(3 * (size_t)num_fragments * sizeof(int64_t));
    uint8_t *alive = malloc((size_t)num_fragments);
    if (candidates == NULL || alive == NULL) {
        free(candidates);
        free(alive);
        return -2;
    }
    int64_t *counts = candidates + num_fragments;
    int64_t *tier = counts + num_fragments;
    int64_t out = 0;

    for (int64_t e = 0; e < events; e++) {
        const uint8_t *up_have = have + up[e] * num_fragments;
        int64_t d = down[e];
        uint8_t *down_have = have + d * num_fragments;
        uint8_t *down_lack = lack + d * num_fragments;
        double s = surplus[e];
        int64_t h = held[d];
        int64_t first = out;
        offsets[e] = out;

        int64_t live = 0;
        for (int64_t f = 0; f < num_fragments; f++) {
            candidates[live] = f;
            live += up_have[f] & down_lack[f];
        }
        if (live == 0) {
            /* Nothing useful left on this pipe; drop the surplus. */
            surplus[e] = 0.0;
            continue;
        }
        memset(alive, 1, (size_t)live);
        int64_t total = live;
        int have_counts = 0;
        int64_t tier_size = 0;

        while (s >= fragment_size) {
            int64_t pos;
            if (h < threshold) {
                /* Random-first: the r-th live candidate. */
                if (live == 0) {
                    s = 0.0;
                    break;
                }
                uint64_t r = random_bounded_uint64(bitgen, 0, (uint64_t)(live - 1), 0, 0);
                pos = 0;
                for (;; pos++) {
                    if (alive[pos] && r-- == 0) {
                        break;
                    }
                }
                tier_size = 0;
            } else {
                if (tier_size == 0) {
                    /* Rarest tier of the event's availability snapshot; only
                     * this event's own (dead) receipts move the counts. */
                    if (!have_counts) {
                        for (int64_t i = 0; i < total; i++) {
                            counts[i] = availability[candidates[i]];
                        }
                        have_counts = 1;
                    }
                    if (live == 0) {
                        s = 0.0;
                        break;
                    }
                    int64_t rarest = INT64_MAX;
                    for (int64_t i = 0; i < total; i++) {
                        int64_t c = alive[i] ? counts[i] : INT64_MAX;
                        rarest = c < rarest ? c : rarest;
                    }
                    for (int64_t i = 0; i < total; i++) {
                        tier[tier_size] = i;
                        tier_size += alive[i] & (counts[i] == rarest);
                    }
                }
                uint64_t r = random_bounded_uint64(bitgen, 0, (uint64_t)(tier_size - 1), 0, 0);
                pos = tier[r];
                memmove(tier + r, tier + r + 1, (size_t)(tier_size - 1 - (int64_t)r) * sizeof(int64_t));
                tier_size--;
            }
            alive[pos] = 0;
            live--;
            int64_t fragment = candidates[pos];
            s -= fragment_size;
            if (out == capacity) {
                free(candidates);
                free(alive);
                return -1;
            }
            received[out++] = fragment;
            down_lack[fragment] = 0;
            down_have[fragment] = 1;
            availability[fragment] += 1;
            h += 1;
            if (h == num_fragments) {
                break;
            }
        }
        held[d] = h;
        surplus[e] = s;

        if (wanted != NULL && out > first) {
            /* Incremental interest: wanted[u, v] counts fragments u holds
             * that v lacks; only d's row and column move. */
            for (int64_t k = first; k < out; k++) {
                int64_t fragment = received[k];
                for (int64_t u = 0; u < hosts; u++) {
                    if (u == d) {
                        continue;
                    }
                    if (have[u * num_fragments + fragment]) {
                        wanted[u * hosts + d] -= 1;
                    } else {
                        wanted[d * hosts + u] += 1;
                    }
                }
            }
            wanted[d * hosts + d] = 0;
        }
    }
    offsets[events] = out;
    free(candidates);
    free(alive);
    return out;
}

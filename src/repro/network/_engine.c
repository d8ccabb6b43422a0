/*
 * The scalar engine loop of repro.network.lockstep_engine, in C.
 *
 * run_indexed() performs the same IEEE binary64 operations as the
 * Python loop, in the same order, so its results are bit-identical:
 *
 *   ser = wire / bandwidth;  grant = head >= at ? head : at;
 *   avail = grant + ser;     busy += ser;      head = grant + lat;
 *   deliver = head + ser;    ideal = (ready + lat_sum) + max_ser;
 *   total_wire += wire * hops, in processing order;
 *   wake = deliver + overhead[dep], applied only when greater.
 *
 * A multi-channel link grants its first lowest channel, which is what
 * Python's min(range(capacity), key=pool.__getitem__) picks.  The
 * processing order replays heapq's sift operations on (ready,
 * push_seq, idx) keys.
 *
 * Build with -O2 -ffp-contract=off and never with fast-math: a fused
 * multiply-add or a reassociated sum would change the bits.
 *
 * run_ladder() runs that loop once per payload size of a ladder over
 * one set of columns, in a single call: it builds the dependents CSR
 * from the schedule's dependency CSR (a stable counting sort, equal to
 * repro.network.links.dep_structure), reads wire bytes from a table per
 * size and payload class, and spreads a table of gates per size and
 * step over the step bounds.  Per size it reports finish, total wire
 * and the max of deliver - ideal; the per-message columns and link busy
 * totals are written only when the caller passes them.
 *
 * The kernel trusts its columns; repro.network.native checks them
 * before the first run.  run_indexed returns the number of processed
 * messages, run_ladder the number of sizes run or -1 on a dependency
 * deadlock; both return -2 when memory runs out.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Every double operation must round to binary64 as Python's do; a
 * target that evaluates in wider precision (x87) fails the build, and
 * the engines keep the Python loop. */
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "the engine kernel needs binary64 evaluation (FLT_EVAL_METHOD 0)"
#endif

typedef struct {
    double ready;
    int64_t seq;
    int64_t idx;
} row_key;

/* Python's tuple comparison (ready, seq, idx) < (ready, seq, idx). */
static int key_lt(const row_key *a, const row_key *b)
{
    if (a->ready != b->ready)
        return a->ready < b->ready;
    if (a->seq != b->seq)
        return a->seq < b->seq;
    return a->idx < b->idx;
}

/* heapq._siftdown */
static void sift_down(row_key *heap, int64_t start, int64_t pos)
{
    row_key item = heap[pos];
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (!key_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* heapq._siftup */
static void sift_up(row_key *heap, int64_t len, int64_t pos)
{
    int64_t start = pos;
    row_key item = heap[pos];
    int64_t child = 2 * pos + 1;
    while (child < len) {
        int64_t right = child + 1;
        if (right < len && !key_lt(&heap[child], &heap[right]))
            child = right;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    sift_down(heap, start, pos);
}

typedef struct {
    const double *bandwidth, *latency;
    const int64_t *capacity, *chan_off;
    double *chan;
    /* Wire bytes per message, or per class when cls is set: message
     * idx then reads wire[cls[idx * cls_stride]].  The receive overhead
     * of message idx is overhead[idx * overhead_stride]. */
    const double *wire, *overhead;
    const int64_t *cls;
    int64_t cls_stride, overhead_stride;
    const int64_t *route_off, *route_val, *dd_off, *dd_val;
    int64_t *remaining;
    /* inject, deliver and ideal are NULL in the lean mode. */
    double *ready, *inject, *deliver, *ideal, *busy;
    row_key *heap;
    int64_t heap_len, seq, processed;
    double finish, total_wire, max_queue_delay;
} engine;

/* One message: the per-hop FIFO grant, then the dependency wake. */
static void run_message(engine *e, double rd, int64_t idx)
{
    double wire = e->cls ? e->wire[e->cls[idx * e->cls_stride]]
                         : e->wire[idx];
    int64_t r0 = e->route_off[idx], r1 = e->route_off[idx + 1];
    double inj, dlv, idl;

    e->total_wire += wire * (double)(r1 - r0);
    if (r0 == r1) { /* zero-hop (src == dst): degenerate, instant */
        inj = rd;
        dlv = rd;
        idl = rd;
    } else {
        double head = rd, ser = 0.0, lat_sum = 0.0, max_ser = 0.0;
        inj = 0.0;
        for (int64_t k = r0; k < r1; k++) {
            int64_t li = e->route_val[k];
            double *pool = e->chan + e->chan_off[li];
            int64_t cap = e->capacity[li], ch = 0;
            for (int64_t c = 1; c < cap; c++)
                if (pool[c] < pool[ch])
                    ch = c;
            double at = pool[ch];
            ser = wire / e->bandwidth[li];
            double grant = head >= at ? head : at;
            pool[ch] = grant + ser;
            e->busy[li] += ser;
            if (k == r0)
                inj = grant;
            double lat = e->latency[li];
            head = grant + lat;
            lat_sum += lat;
            if (ser > max_ser)
                max_ser = ser;
        }
        dlv = head + ser;
        idl = rd + lat_sum + max_ser;
    }
    if (e->deliver != NULL) {
        e->inject[idx] = inj;
        e->deliver[idx] = dlv;
        e->ideal[idx] = idl;
    }
    if (dlv - idl > e->max_queue_delay)
        e->max_queue_delay = dlv - idl;
    if (dlv > e->finish)
        e->finish = dlv;
    e->processed++;

    for (int64_t k = e->dd_off[idx]; k < e->dd_off[idx + 1]; k++) {
        int64_t dep = e->dd_val[k];
        double wake = dlv + e->overhead[dep * e->overhead_stride];
        if (wake > e->ready[dep])
            e->ready[dep] = wake;
        if (--e->remaining[dep] == 0) {
            row_key *slot = &e->heap[e->heap_len];
            slot->ready = e->ready[dep];
            slot->seq = e->seq++;
            slot->idx = dep;
            sift_down(e->heap, 0, e->heap_len++);
        }
    }
}

static int64_t heap_order(engine *e, int64_t n)
{
    for (int64_t idx = 0; idx < n; idx++) {
        if (e->remaining[idx] == 0) {
            row_key *slot = &e->heap[e->heap_len++];
            slot->ready = e->ready[idx];
            slot->seq = e->seq++;
            slot->idx = idx;
        }
    }
    for (int64_t i = e->heap_len / 2 - 1; i >= 0; i--) /* heapq.heapify */
        sift_up(e->heap, e->heap_len, i);
    while (e->heap_len > 0) { /* heapq.heappop */
        row_key top = e->heap[0];
        row_key last = e->heap[--e->heap_len];
        if (e->heap_len > 0) {
            e->heap[0] = last;
            sift_up(e->heap, e->heap_len, 0);
        }
        run_message(e, top.ready, top.idx);
    }
    return e->processed;
}

int64_t run_indexed(
    int64_t n, int64_t num_links,
    const double *bandwidth, const double *latency, const int64_t *capacity,
    const double *wire, const int64_t *route_off, const int64_t *route_val,
    const int64_t *dd_off, const int64_t *dd_val, const double *overhead,
    int64_t *remaining, double *ready,
    double *inject, double *deliver, double *ideal, double *busy,
    double *totals)
{
    engine e = {0};
    int64_t channels = 0, result = -2;
    int64_t *chan_off = malloc(sizeof(int64_t) * (size_t)(num_links + 1));
    row_key *heap = malloc(sizeof(row_key) * (size_t)(n + 1));

    if (chan_off == NULL || heap == NULL)
        goto done;
    for (int64_t li = 0; li < num_links; li++) {
        chan_off[li] = channels;
        channels += capacity[li];
    }
    e.chan = calloc((size_t)(channels + 1), sizeof(double));
    if (e.chan == NULL)
        goto done;
    e.bandwidth = bandwidth;
    e.latency = latency;
    e.capacity = capacity;
    e.chan_off = chan_off;
    e.wire = wire;
    e.overhead = overhead;
    e.overhead_stride = 1;
    e.route_off = route_off;
    e.route_val = route_val;
    e.dd_off = dd_off;
    e.dd_val = dd_val;
    e.remaining = remaining;
    e.ready = ready;
    e.inject = inject;
    e.deliver = deliver;
    e.ideal = ideal;
    e.busy = busy;
    e.heap = heap;
    result = heap_order(&e, n);
    totals[0] = e.finish;
    totals[1] = e.total_wire;
done:
    free(e.chan);
    free(heap);
    free(chan_off);
    return result;
}

/* The dependents CSR of a dependency CSR: dd_val[dd_off[v]:dd_off[v+1]]
 * lists the messages waiting on v in message-index order, the order a
 * stable sort of the dependency ids keeps.  cursor is n scratch ids. */
static void dependents(int64_t n, const int64_t *dep_off,
                       const int64_t *dep_val, int64_t *dd_off,
                       int64_t *dd_val, int64_t *cursor)
{
    memset(dd_off, 0, sizeof(int64_t) * (size_t)(n + 1));
    for (int64_t k = dep_off[0]; k < dep_off[n]; k++)
        dd_off[dep_val[k] + 1]++;
    for (int64_t i = 0; i < n; i++) {
        dd_off[i + 1] += dd_off[i];
        cursor[i] = dd_off[i];
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t k = dep_off[i]; k < dep_off[i + 1]; k++)
            dd_val[cursor[dep_val[k]]++] = i;
}

int64_t run_ladder(
    int64_t n, int64_t num_links, int64_t num_sizes,
    const double *bandwidth, const double *latency, const int64_t *capacity,
    const int64_t *route_off, const int64_t *route_val,
    const int64_t *dep_off, const int64_t *dep_val,
    const double *wire, int64_t num_classes,
    const int64_t *cls, int64_t cls_stride,
    const double *gates, int64_t num_steps, const int64_t *step_bounds,
    const double *overhead,
    double *totals,
    double *ready, double *inject, double *deliver, double *ideal,
    double *busy,
    int64_t *stuck)
{
    engine e = {0};
    int64_t channels = 0, result = -2;
    int64_t entries = dep_off[n] - dep_off[0];
    int lean = deliver == NULL;
    int64_t *chan_off = malloc(sizeof(int64_t) * (size_t)(num_links + 1));
    row_key *heap = malloc(sizeof(row_key) * (size_t)(n + 1));
    int64_t *dd_off = malloc(sizeof(int64_t) * (size_t)(n + 1));
    int64_t *dd_val = malloc(sizeof(int64_t) * (size_t)(entries + 1));
    int64_t *remaining = malloc(sizeof(int64_t) * (size_t)(n + 1));
    double *ready_row = lean ? malloc(sizeof(double) * (size_t)(n + 1)) : NULL;
    double *busy_row = lean ? malloc(sizeof(double) * (size_t)(num_links + 1))
                            : NULL;

    if (chan_off == NULL || heap == NULL || dd_off == NULL || dd_val == NULL
            || remaining == NULL || (lean && (ready_row == NULL
                                              || busy_row == NULL)))
        goto done;
    for (int64_t li = 0; li < num_links; li++) {
        chan_off[li] = channels;
        channels += capacity[li];
    }
    e.chan = malloc(sizeof(double) * (size_t)(channels + 1));
    if (e.chan == NULL)
        goto done;
    dependents(n, dep_off, dep_val, dd_off, dd_val, remaining);
    e.bandwidth = bandwidth;
    e.latency = latency;
    e.capacity = capacity;
    e.chan_off = chan_off;
    e.cls = cls;
    e.cls_stride = cls_stride;
    e.overhead = overhead;
    e.overhead_stride = 0;
    e.route_off = route_off;
    e.route_val = route_val;
    e.dd_off = dd_off;
    e.dd_val = dd_val;
    e.remaining = remaining;
    e.heap = heap;
    for (int64_t j = 0; j < num_sizes; j++) {
        e.wire = wire + j * num_classes;
        e.ready = lean ? ready_row : ready + j * n;
        e.busy = lean ? busy_row : busy + j * num_links;
        if (!lean) {
            e.inject = inject + j * n;
            e.deliver = deliver + j * n;
            e.ideal = ideal + j * n;
        }
        memset(e.chan, 0, sizeof(double) * (size_t)channels);
        memset(e.busy, 0, sizeof(double) * (size_t)num_links);
        for (int64_t i = 0; i < n; i++) {
            remaining[i] = dep_off[i + 1] - dep_off[i];
            e.ready[i] = 0.0;
        }
        if (gates != NULL) /* step s is rows step_bounds[s]..[s + 1] */
            for (int64_t s = 0; s < num_steps; s++)
                for (int64_t i = step_bounds[s]; i < step_bounds[s + 1]; i++)
                    e.ready[i] = gates[j * num_steps + s];
        e.heap_len = e.seq = e.processed = 0;
        e.finish = e.total_wire = 0.0;
        e.max_queue_delay = -INFINITY;
        if (heap_order(&e, n) != n) {
            stuck[0] = 0;
            for (int64_t i = 0; i < n; i++)
                if (remaining[i] > 0 && ++stuck[0] <= 5)
                    stuck[stuck[0]] = i;
            result = -1;
            goto done;
        }
        totals[3 * j] = e.finish;
        totals[3 * j + 1] = e.total_wire;
        totals[3 * j + 2] = n > 0 ? e.max_queue_delay : 0.0;
    }
    result = num_sizes;
done:
    free(e.chan);
    free(busy_row);
    free(ready_row);
    free(remaining);
    free(dd_val);
    free(dd_off);
    free(heap);
    free(chan_off);
    return result;
}

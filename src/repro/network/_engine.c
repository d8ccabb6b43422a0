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
 * Python's min(range(capacity), key=pool.__getitem__) picks.  Heap
 * order replays heapq's sift operations on (ready, push_seq, idx)
 * keys; step order sorts each step by the same keys and declines
 * (returns -1) where the Python step order yields None.
 *
 * Build with -O2 -ffp-contract=off and never with fast-math: a fused
 * multiply-add or a reassociated sum would change the bits.
 *
 * The kernel trusts its columns; repro.network.native checks them
 * before the first run.  Returns the number of processed messages, -1
 * for a declined step order, or -2 when memory runs out.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

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

static int key_cmp(const void *pa, const void *pb)
{
    const row_key *a = pa, *b = pb;
    return key_lt(a, b) ? -1 : (key_lt(b, a) ? 1 : 0);
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
    const double *wire, *overhead;
    const int64_t *route_off, *route_val, *dd_off, *dd_val;
    int64_t *remaining, *push_seq;
    double *ready, *inject, *deliver, *ideal, *busy;
    row_key *heap;
    int64_t heap_len, seq, processed;
    double finish, total_wire;
} engine;

/* One message: the per-hop FIFO grant, then the dependency wake. */
static void run_message(engine *e, double rd, int64_t idx)
{
    double wire = e->wire[idx];
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
    e->inject[idx] = inj;
    e->deliver[idx] = dlv;
    e->ideal[idx] = idl;
    if (dlv > e->finish)
        e->finish = dlv;
    e->processed++;

    for (int64_t k = e->dd_off[idx]; k < e->dd_off[idx + 1]; k++) {
        int64_t dep = e->dd_val[k];
        double wake = dlv + e->overhead[dep];
        if (wake > e->ready[dep])
            e->ready[dep] = wake;
        if (--e->remaining[dep] == 0) {
            if (e->push_seq != NULL) {
                e->push_seq[dep] = e->seq;
            } else {
                row_key *slot = &e->heap[e->heap_len];
                slot->ready = e->ready[dep];
                slot->seq = e->seq;
                slot->idx = dep;
                sift_down(e->heap, 0, e->heap_len++);
            }
            e->seq++;
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

static int64_t step_order(engine *e, int64_t n, int64_t num_bounds,
                          const int64_t *bounds, row_key *rows)
{
    row_key last = {-INFINITY, -1, -1};
    for (int64_t idx = 0; idx < n; idx++)
        if (e->remaining[idx] == 0)
            e->push_seq[idx] = e->seq++;
    for (int64_t s = 0; s + 1 < num_bounds; s++) {
        int64_t lo = bounds[s], hi = bounds[s + 1];
        if (lo == hi)
            continue;
        for (int64_t idx = lo; idx < hi; idx++) {
            /* A row depends on one in its own or a later step: its key
             * is not final when the step starts. */
            if (e->remaining[idx] != 0)
                return -1;
            rows[idx - lo].ready = e->ready[idx];
            rows[idx - lo].seq = e->push_seq[idx];
            rows[idx - lo].idx = idx;
        }
        qsort(rows, (size_t)(hi - lo), sizeof(row_key), key_cmp);
        /* A row of this step is ready before the previous step's last:
         * the heap would interleave the two steps. */
        if (key_lt(&rows[0], &last))
            return -1;
        last = rows[hi - lo - 1];
        for (int64_t i = 0; i < hi - lo; i++)
            run_message(e, rows[i].ready, rows[i].idx);
    }
    return e->processed;
}

int64_t run_indexed(
    int64_t n, int64_t num_links,
    const double *bandwidth, const double *latency, const int64_t *capacity,
    const double *wire, const int64_t *route_off, const int64_t *route_val,
    const int64_t *dd_off, const int64_t *dd_val, const double *overhead,
    int64_t num_bounds, const int64_t *bounds,
    int64_t *remaining, double *ready,
    double *inject, double *deliver, double *ideal, double *busy,
    double *totals)
{
    engine e = {0};
    int64_t channels = 0, result = -2;
    int64_t *chan_off = malloc(sizeof(int64_t) * (size_t)(num_links + 1));
    row_key *keys = malloc(sizeof(row_key) * (size_t)(n + 1));
    int64_t *push_seq = NULL;

    if (chan_off == NULL || keys == NULL)
        goto done;
    for (int64_t li = 0; li < num_links; li++) {
        chan_off[li] = channels;
        channels += capacity[li];
    }
    e.chan = calloc((size_t)(channels + 1), sizeof(double));
    if (e.chan == NULL)
        goto done;
    if (num_bounds > 0) {
        push_seq = malloc(sizeof(int64_t) * (size_t)(n + 1));
        if (push_seq == NULL)
            goto done;
    }
    e.bandwidth = bandwidth;
    e.latency = latency;
    e.capacity = capacity;
    e.chan_off = chan_off;
    e.wire = wire;
    e.overhead = overhead;
    e.route_off = route_off;
    e.route_val = route_val;
    e.dd_off = dd_off;
    e.dd_val = dd_val;
    e.remaining = remaining;
    e.push_seq = push_seq;
    e.ready = ready;
    e.inject = inject;
    e.deliver = deliver;
    e.ideal = ideal;
    e.busy = busy;
    if (num_bounds > 0) {
        result = step_order(&e, n, num_bounds, bounds, keys);
    } else {
        e.heap = keys;
        result = heap_order(&e, n);
    }
    totals[0] = e.finish;
    totals[1] = e.total_wire;
done:
    free(e.chan);
    free(push_seq);
    free(keys);
    free(chan_off);
    return result;
}

/* The out-of-order timing core's cycle loop, in C.
 *
 * A line-for-line port of the Python loop in core.py (_python_loop),
 * which stays the oracle: commit, issue with the inlined L1 D-cache,
 * dispatch, fetch, the idle-cycle fast-forward and the check_invariants
 * count check.  The pre-passes (repro.sim.ooo.frontend, .renamer) and
 * the L2 stay in Python: the loop reads Dataflow.rows, FetchEvents.stops
 * and the trace's pcs buffer in place, and calls the Python L2's access
 * on every L1D and L1I miss.  native.py builds and loads this file.
 *
 * run(rows, stops, pcs, params, latencies, l2_access, check) returns
 * (cycles, committed, dispatched, rename_stalls, window_stalls,
 *  dcache_accesses, dcache_misses, min_free_phys).  ``check`` is None or
 * (mapped_at, error_class) for the conservation check.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

/* Completion cycle of an instruction that has not issued (core.NEVER). */
#define NEVER ((int64_t)1 << 60)

/* Indices into the ``params`` tuple (see core._native_params). */
enum {
    P_COMMIT_WIDTH, P_ISSUE_WIDTH, P_DECODE_WIDTH, P_FETCH_WIDTH,
    P_WINDOW_SIZE, P_FETCH_QUEUE, P_ALUS, P_MULDIVS, P_MISPREDICT_PENALTY,
    P_CACHE_PORTS, P_PHYS_REGS, P_FREE_COUNT,
    P_L1_LATENCY, P_L1_L2_LATENCY, P_L1_L2_MEM_LATENCY, P_STORE_LATENCY,
    P_L1D_SETS, P_L1D_ASSOC, P_L1D_SHIFT,
    P_CLS_LOAD, P_CLS_STORE, P_CLS_IMUL, P_CLS_IDIV, P_CLS_DROPPED,
    P_STOP_MISS, P_STOP_MISPREDICT,
    N_PARAMS
};

/* One in-flight window entry (core.E_* in the Python loop). */
typedef struct {
    int64_t complete;   /* result cycle; NEVER while unissued */
    Py_ssize_t src1;    /* completion[] slot of each source's producer */
    Py_ssize_t src2;
    Py_ssize_t row;
    int64_t frees;      /* physical registers freed at commit */
    int64_t addr;
    int64_t cls;
    int blocks;         /* fetch stalls until this entry issues */
} Entry;

/* An LRU set-associative L1 D-cache holding tags only (Cache.access). */
typedef struct {
    int64_t *tags;      /* per set, ``assoc`` slots, least recent first */
    Py_ssize_t *fill;
    int64_t set_mask;
    Py_ssize_t assoc;
    int64_t last_line;  /* the most recent line: MRU in its set */
} L1D;

/* Touch ``line``; 1 on a hit, 0 on a miss (which allocates). */
static int
l1d_access(L1D *cache, int64_t line)
{
    if (line == cache->last_line)
        return 1;
    cache->last_line = line;
    Py_ssize_t set = (Py_ssize_t)(line & cache->set_mask);
    int64_t *tags = cache->tags + set * cache->assoc;
    Py_ssize_t fill = cache->fill[set];
    for (Py_ssize_t way = 0; way < fill; way++) {
        if (tags[way] == line) {
            memmove(tags + way, tags + way + 1,
                    (size_t)(fill - way - 1) * sizeof(int64_t));
            tags[fill - 1] = line;
            return 1;
        }
    }
    if (fill >= cache->assoc) {
        memmove(tags, tags + 1, (size_t)(fill - 1) * sizeof(int64_t));
        fill--;
    }
    tags[fill] = line;
    cache->fill[set] = fill + 1;
    return 0;
}

/* The Python L2's verdict on ``addr``: 1 hit, 0 miss, -1 error. */
static int
l2_access(PyObject *access, int64_t addr, int write, PyObject *write_kw)
{
    PyObject *args[2];
    args[0] = PyLong_FromLongLong(addr);
    if (args[0] == NULL)
        return -1;
    args[1] = write ? Py_True : Py_False;
    PyObject *result = PyObject_Vectorcall(
        access, args, 1, write_kw);
    Py_DECREF(args[0]);
    if (result == NULL)
        return -1;
    int hit = PyObject_IsTrue(result);
    Py_DECREF(result);
    return hit;
}

static int
item_int(PyObject *sequence, Py_ssize_t index, int64_t *out)
{
    long long value = PyLong_AsLongLong(PyTuple_GET_ITEM(sequence, index));
    if (value == -1 && PyErr_Occurred())
        return -1;
    *out = value;
    return 0;
}

static PyObject *
run(PyObject *self, PyObject *args)
{
    PyObject *rows, *stops, *pcs_obj, *params_obj, *latencies_obj;
    PyObject *l2, *check;
    if (!PyArg_ParseTuple(args, "O!O!OO!O!OO", &PyTuple_Type, &rows,
                          &PyTuple_Type, &stops, &pcs_obj,
                          &PyTuple_Type, &params_obj,
                          &PyTuple_Type, &latencies_obj, &l2, &check))
        return NULL;
    int64_t p[N_PARAMS];
    if (PyTuple_GET_SIZE(params_obj) != N_PARAMS) {
        PyErr_SetString(PyExc_ValueError, "wrong number of params");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < N_PARAMS; i++)
        if (item_int(params_obj, i, &p[i]) < 0)
            return NULL;
    Py_ssize_t n_lat = PyTuple_GET_SIZE(latencies_obj);
    PyObject *mapped_at = NULL, *error_class = NULL;
    if (check != Py_None && !PyArg_ParseTuple(check, "O!O", &PyList_Type,
                                              &mapped_at, &error_class))
        return NULL;

    Py_ssize_t total = PyTuple_GET_SIZE(rows);
    Py_ssize_t n_stops = PyTuple_GET_SIZE(stops);
    Py_buffer pcs;
    if (PyObject_GetBuffer(pcs_obj, &pcs, PyBUF_FORMAT) < 0)
        return NULL;
    if (pcs.itemsize != sizeof(int) || pcs.format == NULL
            || strcmp(pcs.format, "i") != 0 || pcs.len / pcs.itemsize < total) {
        PyBuffer_Release(&pcs);
        PyErr_SetString(PyExc_ValueError, "pcs must be an array('i') of every row");
        return NULL;
    }
    const int *pc_of = (const int *)pcs.buf;

    const Py_ssize_t window_size = (Py_ssize_t)p[P_WINDOW_SIZE];
    const Py_ssize_t n_ports = (Py_ssize_t)p[P_CACHE_PORTS];
    L1D l1d = {NULL, NULL, p[P_L1D_SETS] - 1, (Py_ssize_t)p[P_L1D_ASSOC], -1};
    int64_t *latency_of = PyMem_Calloc((size_t)n_lat + 1, sizeof(int64_t));
    int64_t *completion = PyMem_Malloc(((size_t)total + 1) * sizeof(int64_t));
    Entry *window = PyMem_Malloc((size_t)window_size * sizeof(Entry));
    Py_ssize_t *pending = PyMem_Malloc((size_t)window_size * sizeof(Py_ssize_t));
    int64_t *ports = PyMem_Calloc((size_t)n_ports, sizeof(int64_t));
    l1d.tags = PyMem_Malloc((size_t)(p[P_L1D_SETS] * p[P_L1D_ASSOC]) * sizeof(int64_t));
    l1d.fill = PyMem_Calloc((size_t)p[P_L1D_SETS], sizeof(Py_ssize_t));
    PyObject *write_kw = Py_BuildValue("(s)", "write");
    PyObject *result = NULL;
    if (!latency_of || !completion || !window || !pending || !ports
            || !l1d.tags || !l1d.fill || !write_kw) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < n_lat; i++)
        if (item_int(latencies_obj, i, &latency_of[i]) < 0)
            goto done;
    for (Py_ssize_t i = 0; i < total; i++)
        completion[i] = NEVER;
    completion[total] = 0;  /* the always-ready producer of READY (-1) */

    const int64_t commit_width = p[P_COMMIT_WIDTH];
    const int64_t issue_width = p[P_ISSUE_WIDTH];
    const int64_t decode_width = p[P_DECODE_WIDTH];
    const int64_t fetch_width = p[P_FETCH_WIDTH];
    const int64_t fetch_capacity = p[P_FETCH_QUEUE];
    const int64_t mispredict_penalty = p[P_MISPREDICT_PENALTY];
    const int64_t l1_latency = p[P_L1_LATENCY];
    const int64_t l1_l2_latency = p[P_L1_L2_LATENCY];
    const int64_t l1_l2_mem_latency = p[P_L1_L2_MEM_LATENCY];
    const int64_t store_latency = p[P_STORE_LATENCY];
    const int l1d_shift = (int)p[P_L1D_SHIFT];
    const int64_t cls_load = p[P_CLS_LOAD], cls_store = p[P_CLS_STORE];
    const int64_t cls_imul = p[P_CLS_IMUL], cls_idiv = p[P_CLS_IDIV];
    const int64_t cls_dropped = p[P_CLS_DROPPED];
    const int64_t stop_miss = p[P_STOP_MISS];
    const int64_t stop_mispredict = p[P_STOP_MISPREDICT];
    const int64_t phys_regs = p[P_PHYS_REGS];

    Py_ssize_t head = 0, win_len = 0, n_pending = 0;
    Py_ssize_t dispatch_pos = 0, fetch_pos = 0, stop_index = 0;
    int64_t cycle = 0, fetch_blocked_until = 0, next_stop = NEVER;
    Py_ssize_t unresolved = -1;
    int64_t free_count = p[P_FREE_COUNT], min_free = free_count;
    int64_t committed = 0, dispatched = 0, rename_stalls = 0, window_stalls = 0;
    int64_t l1d_accesses = 0, l1d_misses = 0;
    unsigned long iterations = 0;
    if (n_stops && item_int(stops, 0, &next_stop) < 0)
        goto done;

#define SLOT(k) (head + (k) < window_size ? head + (k) : head + (k) - window_size)

    while (fetch_pos < total || dispatch_pos < fetch_pos || win_len) {
        int acted = 0;
        if (++iterations % (1u << 20) == 0 && PyErr_CheckSignals() < 0)
            goto done;

        /* ---- stage 1: commit ---- */
        int64_t budget = commit_width;
        while (budget && win_len) {
            Entry *entry = &window[head];
            if (entry->complete > cycle)
                break;
            head = head + 1 == window_size ? 0 : head + 1;
            win_len--;
            free_count += entry->frees;
            completion[entry->row] = 0;
            budget--;
            committed++;
        }
        if (budget != commit_width)
            acted = 1;

        /* ---- stage 2: issue + execute ---- */
        if (n_pending) {
            int64_t alus = p[P_ALUS], muldivs = p[P_MULDIVS], issued = 0;
            Py_ssize_t kept = 0, scan = 0;
            for (; scan < n_pending; scan++) {
                Entry *entry = &window[pending[scan]];
                int64_t latency;
                if (completion[entry->src1] > cycle
                        || completion[entry->src2] > cycle) {
                    pending[kept++] = pending[scan];
                    continue;
                }
                int64_t cls = entry->cls;
                if (cls == cls_load || cls == cls_store) {
                    Py_ssize_t port = 0;
                    while (port < n_ports && ports[port] > cycle)
                        port++;
                    if (port == n_ports) {
                        pending[kept++] = pending[scan];
                        continue;
                    }
                    int is_write = cls == cls_store;
                    l1d_accesses++;
                    if (l1d_access(&l1d, entry->addr >> l1d_shift)) {
                        latency = l1_latency;
                    } else {
                        l1d_misses++;
                        int hit = l2_access(l2, entry->addr, is_write, write_kw);
                        if (hit < 0)
                            goto done;
                        latency = hit ? l1_l2_latency : l1_l2_mem_latency;
                    }
                    /* A port is held for the full duration of a miss. */
                    ports[port] = cycle + (latency > l1_latency ? latency : 1);
                    if (is_write)
                        latency = store_latency;
                } else if (cls == cls_imul || cls == cls_idiv) {
                    if (muldivs <= 0) {
                        pending[kept++] = pending[scan];
                        continue;
                    }
                    muldivs--;
                    latency = latency_of[cls];
                } else {
                    if (alus <= 0) {
                        pending[kept++] = pending[scan];
                        continue;
                    }
                    alus--;
                    latency = latency_of[cls];
                }
                int64_t complete = cycle + latency;
                entry->complete = complete;
                completion[entry->row] = complete;
                if (entry->blocks) {
                    fetch_blocked_until = complete + mispredict_penalty;
                    unresolved = -1;
                }
                if (++issued >= issue_width) {
                    scan++;
                    break;
                }
            }
            for (; scan < n_pending; scan++)
                pending[kept++] = pending[scan];
            n_pending = kept;
            if (issued)
                acted = 1;
        }

        /* ---- stage 3: dispatch (decode + rename) ---- */
        int64_t n_dispatched = 0;
        while (dispatch_pos < fetch_pos) {
            PyObject *row = PyTuple_GET_ITEM(rows, dispatch_pos);
            int64_t cls, src1, src2, addr, alloc, frees;
            if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 6) {
                PyErr_SetString(PyExc_TypeError, "a dataflow row must be a 6-tuple");
                goto done;
            }
            if (item_int(row, 0, &cls) < 0 || item_int(row, 5, &frees) < 0)
                goto done;
            if (cls == cls_dropped) {
                /* Decoded, not dispatched: the kill's frees ride with the
                 * youngest in-flight entry, or commit now. */
                dispatch_pos++;
                if (frees) {
                    if (win_len)
                        window[SLOT(win_len - 1)].frees += frees;
                    else
                        free_count += frees;
                }
                acted = 1;
                continue;
            }
            if (n_dispatched >= decode_width)
                break;
            if (win_len >= window_size) {
                window_stalls++;
                break;
            }
            if (item_int(row, 1, &src1) < 0 || item_int(row, 2, &src2) < 0
                    || item_int(row, 3, &addr) < 0 || item_int(row, 4, &alloc) < 0)
                goto done;
            if (cls < 0 || cls >= n_lat || src1 > total || src2 > total) {
                PyErr_Format(PyExc_ValueError, "row %zd: malformed dataflow row",
                             dispatch_pos);
                goto done;
            }
            if (alloc) {
                if (!free_count) {
                    rename_stalls++;
                    break;
                }
                free_count--;
                if (free_count < min_free)
                    min_free = free_count;
            }
            Py_ssize_t slot = SLOT(win_len);
            Entry *entry = &window[slot];
            entry->complete = NEVER;
            entry->src1 = src1 < 0 ? total : (Py_ssize_t)src1;
            entry->src2 = src2 < 0 ? total : (Py_ssize_t)src2;
            entry->row = dispatch_pos;
            entry->frees = frees;
            entry->addr = addr;
            entry->cls = cls;
            entry->blocks = unresolved == dispatch_pos;
            dispatch_pos++;
            win_len++;
            pending[n_pending++] = slot;
            n_dispatched++;
        }
        if (n_dispatched) {
            dispatched += n_dispatched;
            acted = 1;
        }

        /* ---- stage 4: fetch ---- */
        if (cycle >= fetch_blocked_until && unresolved < 0) {
            int64_t room = fetch_capacity - (fetch_pos - dispatch_pos);
            if (room > fetch_width)
                room = fetch_width;
            int64_t stop = fetch_pos + room;
            if (stop > total)
                stop = total;
            if (fetch_pos < stop) {
                acted = 1;
                if (next_stop < stop << 2) {
                    /* The next fetch event falls inside this group. */
                    Py_ssize_t row = (Py_ssize_t)(next_stop >> 2);
                    int64_t kind = next_stop & 3;
                    if (row < fetch_pos) {
                        PyErr_Format(PyExc_ValueError, "fetch event %zd is behind fetch",
                                     stop_index);
                        goto done;
                    }
                    stop_index++;
                    if (stop_index < n_stops) {
                        if (item_int(stops, stop_index, &next_stop) < 0)
                            goto done;
                    } else {
                        next_stop = NEVER;
                    }
                    if (kind == stop_miss) {
                        fetch_pos = row;
                        int hit = l2_access(l2, (int64_t)pc_of[row] << 2, 0, NULL);
                        if (hit < 0)
                            goto done;
                        fetch_blocked_until =
                            cycle + (hit ? l1_l2_latency : l1_l2_mem_latency);
                    } else {
                        fetch_pos = row + 1;
                        if (kind == stop_mispredict)
                            unresolved = row;
                    }
                } else {
                    fetch_pos = (Py_ssize_t)stop;
                }
            }
        }

        if (acted) {
            cycle++;
        } else {
            /* ---- idle-cycle fast-forward (see the Python loop) ---- */
            int64_t target = NEVER;
            if (win_len && window[head].complete < target)
                target = window[head].complete;
            if (unresolved < 0 && fetch_pos < total
                    && cycle < fetch_blocked_until && fetch_blocked_until < target
                    && fetch_pos - dispatch_pos < fetch_capacity)
                target = fetch_blocked_until;
            int64_t earliest_port = -1;
            for (Py_ssize_t k = 0; k < n_pending; k++) {
                Entry *entry = &window[pending[k]];
                int64_t at = cycle + 1;
                if (completion[entry->src1] > at)
                    at = completion[entry->src1];
                if (completion[entry->src2] > at)
                    at = completion[entry->src2];
                if (at >= target)
                    continue;
                if (entry->cls == cls_load || entry->cls == cls_store) {
                    if (earliest_port < 0) {
                        earliest_port = ports[0];
                        for (Py_ssize_t i = 1; i < n_ports; i++)
                            if (ports[i] < earliest_port)
                                earliest_port = ports[i];
                    }
                    if (earliest_port > at)
                        at = earliest_port;
                }
                if (at < target)
                    target = at;
            }
            if (cycle + 1 < target && target < NEVER) {
                int64_t skipped = target - cycle - 1;
                if (dispatch_pos < fetch_pos) {
                    /* Dispatch stays blocked through the skipped cycles. */
                    if (win_len >= window_size)
                        window_stalls += skipped;
                    else
                        rename_stalls += skipped;
                }
                cycle = target;
            } else {
                cycle++;
            }
        }

        if (mapped_at != NULL) {
            int64_t held = 0, mapped;
            for (Py_ssize_t k = 0; k < win_len; k++)
                held += window[SLOT(k)].frees;
            if (dispatch_pos >= PyList_GET_SIZE(mapped_at)) {
                PyErr_SetString(PyExc_IndexError, "mapped_at is too short");
                goto done;
            }
            long long value = PyLong_AsLongLong(PyList_GET_ITEM(mapped_at, dispatch_pos));
            if (value == -1 && PyErr_Occurred())
                goto done;
            mapped = value;
            if (mapped + free_count + held != phys_regs) {
                PyErr_Format(error_class,
                    "physical register conservation violated at cycle %lld: "
                    "%lld mapped + %lld free + %lld held in flight != %lld",
                    (long long)cycle, (long long)mapped, (long long)free_count,
                    (long long)held, (long long)phys_regs);
                goto done;
            }
        }
    }
#undef SLOT

    result = Py_BuildValue("(LLLLLLLL)", (long long)cycle, (long long)committed,
                           (long long)dispatched, (long long)rename_stalls,
                           (long long)window_stalls, (long long)l1d_accesses,
                           (long long)l1d_misses, (long long)min_free);
done:
    Py_XDECREF(write_kw);
    PyMem_Free(l1d.fill);
    PyMem_Free(l1d.tags);
    PyMem_Free(ports);
    PyMem_Free(pending);
    PyMem_Free(window);
    PyMem_Free(completion);
    PyMem_Free(latency_of);
    PyBuffer_Release(&pcs);
    return result;
}

static PyMethodDef methods[] = {
    {"run", run, METH_VARARGS, "Run the timing core's cycle loop to completion."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_cycle", "The timing core's cycle loop in C.", -1, methods,
};

PyMODINIT_FUNC
PyInit__cycle(void)
{
    return PyModule_Create(&module);
}

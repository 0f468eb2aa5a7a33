/* Compiled core of the RR kernel and the greedy cover-update inner loop.
 *
 * Contract with repro.propagation.kernels (the NumPy sampler):
 *
 * - sample_chunk() draws the counter-keyed coin: in-edge slot s (out-CSR
 *   edge e = in_edge_ids[s]) is live in RR set j iff
 *   splitmix64(key + (j*E + e)*gamma) >> 11 < p_e * 2**53.  A coin depends
 *   only on (set, edge), never on traversal order, so walking one set at
 *   a time here and all sets of a pass together in NumPy reach the same
 *   members.  Each set is written in canonical order (BFS level, then
 *   ascending node), so the packed bytes are identical too.
 * - cover_update() performs the exact integer arithmetic of the NumPy
 *   cover-update step (mark uncovered member sets covered, decrement the
 *   coverage count of every member of each newly covered set), so greedy
 *   argmax/tie-break sequences are unchanged whether or not this
 *   extension is loaded.
 *
 * Everything speaks the stable CPython buffer protocol — no NumPy C API,
 * no ABI coupling; the wrapper hands in contiguous int64/float64/uint8
 * arrays and re-wraps the returned bytearrays with np.frombuffer.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* splitmix64 — the counter-keyed coin                                  */
/* ------------------------------------------------------------------ */

#define SPLITMIX_GAMMA 0x9E3779B97F4A7C15ULL

static inline uint64_t
splitmix64(uint64_t key, uint64_t counter)
{
    uint64_t z = key + counter * SPLITMIX_GAMMA;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* ------------------------------------------------------------------ */
/* Small helpers                                                        */
/* ------------------------------------------------------------------ */

static int
int64_compare(const void *left, const void *right)
{
    const int64_t a = *(const int64_t *)left;
    const int64_t b = *(const int64_t *)right;
    return (a > b) - (a < b);
}

/* Growable int64 output buffer (the packed `nodes` array under
 * construction). */
typedef struct {
    int64_t *data;
    Py_ssize_t size;
    Py_ssize_t capacity;
} i64buf;

static int
i64buf_init(i64buf *buf, Py_ssize_t capacity)
{
    if (capacity < 16)
        capacity = 16;
    buf->data = (int64_t *)malloc((size_t)capacity * sizeof(int64_t));
    buf->size = 0;
    buf->capacity = capacity;
    return buf->data != NULL;
}

static int
i64buf_reserve(i64buf *buf, Py_ssize_t extra)
{
    if (buf->size + extra <= buf->capacity)
        return 1;
    Py_ssize_t capacity = buf->capacity;
    while (buf->size + extra > capacity)
        capacity *= 2;
    int64_t *grown = (int64_t *)realloc(buf->data, (size_t)capacity * sizeof(int64_t));
    if (grown == NULL)
        return 0;
    buf->data = grown;
    buf->capacity = capacity;
    return 1;
}

/* ------------------------------------------------------------------ */
/* sample_chunk                                                         */
/* ------------------------------------------------------------------ */

static const char sample_chunk_doc[] =
    "sample_chunk(num_nodes, in_offsets, in_sources, in_edge_ids, "
    "edge_probabilities, roots, key, first) -> (nodes_bytes, offsets_bytes)\n\n"
    "Sample RR sets first, first + 1, ... (rooted at roots) of the batch "
    "keyed by *key* into packed (nodes, offsets) int64 buffers.";

static PyObject *
sample_chunk(PyObject *self, PyObject *args)
{
    Py_ssize_t num_nodes;
    Py_buffer in_offsets_buf, in_sources_buf, in_edge_ids_buf;
    Py_buffer probs_buf, roots_buf;
    unsigned long long key, first;

    (void)self;
    if (!PyArg_ParseTuple(args, "ny*y*y*y*y*KK",
                          &num_nodes, &in_offsets_buf, &in_sources_buf,
                          &in_edge_ids_buf, &probs_buf, &roots_buf, &key,
                          &first))
        return NULL;

    const int64_t *in_offsets = (const int64_t *)in_offsets_buf.buf;
    const int64_t *in_sources = (const int64_t *)in_sources_buf.buf;
    const int64_t *in_edge_ids = (const int64_t *)in_edge_ids_buf.buf;
    const double *probs = (const double *)probs_buf.buf;
    const int64_t *roots = (const int64_t *)roots_buf.buf;
    const Py_ssize_t count = roots_buf.len / (Py_ssize_t)sizeof(int64_t);
    const uint64_t num_edges = (uint64_t)(probs_buf.len / (Py_ssize_t)sizeof(double));

    PyObject *result = NULL;
    uint8_t *visited = NULL;
    int64_t *frontier = NULL, *next = NULL, *offsets = NULL;
    i64buf out = {NULL, 0, 0};
    int failed = 0;

    if (num_nodes < 0 ||
        in_offsets_buf.len < (Py_ssize_t)((num_nodes + 1) * sizeof(int64_t))) {
        PyErr_SetString(PyExc_ValueError, "in_offsets shorter than num_nodes + 1");
        goto cleanup;
    }

    visited = (uint8_t *)calloc((size_t)(num_nodes > 0 ? num_nodes : 1), 1);
    frontier = (int64_t *)malloc((size_t)(num_nodes > 0 ? num_nodes : 1) * sizeof(int64_t));
    next = (int64_t *)malloc((size_t)(num_nodes > 0 ? num_nodes : 1) * sizeof(int64_t));
    offsets = (int64_t *)malloc((size_t)(count + 1) * sizeof(int64_t));
    if (visited == NULL || frontier == NULL || next == NULL || offsets == NULL ||
        !i64buf_init(&out, count * 4)) {
        PyErr_NoMemory();
        goto cleanup;
    }

    Py_BEGIN_ALLOW_THREADS
    offsets[0] = 0;
    for (Py_ssize_t sample = 0; sample < count && !failed; sample++) {
        const int64_t root = roots[sample];
        const Py_ssize_t set_start = out.size;
        const uint64_t set_base = ((uint64_t)first + (uint64_t)sample) * num_edges;
        if (root < 0 || root >= (int64_t)num_nodes) {
            failed = 1;
            break;
        }
        visited[root] = 1;
        frontier[0] = root;
        Py_ssize_t frontier_size = 1;
        if (!i64buf_reserve(&out, 1)) {
            failed = 2;
            break;
        }
        out.data[out.size++] = root;
        while (frontier_size > 0) {
            Py_ssize_t next_size = 0;
            for (Py_ssize_t f = 0; f < frontier_size; f++) {
                const int64_t node = frontier[f];
                const int64_t start = in_offsets[node];
                const int64_t stop = in_offsets[node + 1];
                for (int64_t slot = start; slot < stop; slot++) {
                    const int64_t edge = in_edge_ids[slot];
                    const uint64_t coin = splitmix64(key, set_base + (uint64_t)edge) >> 11;
                    /* u * 2**-53 < p  <=>  u < p * 2**53, both exact. */
                    if ((double)coin < probs[edge] * 9007199254740992.0) {
                        const int64_t source = in_sources[slot];
                        if (!visited[source]) {
                            visited[source] = 1;
                            next[next_size++] = source;
                        }
                    }
                }
            }
            if (next_size == 0)
                break;
            /* Canonical order: each level's new nodes ascending.  Dedup
             * already happened via the visited marks. */
            qsort(next, (size_t)next_size, sizeof(int64_t), int64_compare);
            if (!i64buf_reserve(&out, next_size)) {
                failed = 2;
                break;
            }
            memcpy(out.data + out.size, next, (size_t)next_size * sizeof(int64_t));
            out.size += next_size;
            int64_t *swap = frontier;
            frontier = next;
            next = swap;
            frontier_size = next_size;
        }
        /* Clear only the touched entries — O(|RR set|), not O(n). */
        for (Py_ssize_t m = set_start; m < out.size; m++)
            visited[out.data[m]] = 0;
        offsets[sample + 1] = (int64_t)out.size;
    }
    Py_END_ALLOW_THREADS

    if (failed == 1) {
        PyErr_SetString(PyExc_ValueError, "root out of range");
        goto cleanup;
    }
    if (failed == 2) {
        PyErr_NoMemory();
        goto cleanup;
    }

    {
        PyObject *nodes_bytes = PyByteArray_FromStringAndSize(
            (const char *)out.data, out.size * (Py_ssize_t)sizeof(int64_t));
        PyObject *offsets_bytes = PyByteArray_FromStringAndSize(
            (const char *)offsets, (count + 1) * (Py_ssize_t)sizeof(int64_t));
        if (nodes_bytes != NULL && offsets_bytes != NULL)
            result = PyTuple_Pack(2, nodes_bytes, offsets_bytes);
        Py_XDECREF(nodes_bytes);
        Py_XDECREF(offsets_bytes);
    }

cleanup:
    free(visited);
    free(frontier);
    free(next);
    free(offsets);
    free(out.data);
    PyBuffer_Release(&in_offsets_buf);
    PyBuffer_Release(&in_sources_buf);
    PyBuffer_Release(&in_edge_ids_buf);
    PyBuffer_Release(&probs_buf);
    PyBuffer_Release(&roots_buf);
    return result;
}

/* ------------------------------------------------------------------ */
/* cover_update                                                         */
/* ------------------------------------------------------------------ */

static const char cover_update_doc[] =
    "cover_update(seed_node, member_offsets, member_sets, covered, "
    "set_offsets, set_nodes, coverage) -> newly_covered\n\n"
    "In-place greedy cover update: mark the seed node's not-yet-covered "
    "RR sets covered and decrement the coverage count of each of their "
    "members.  Exact integer arithmetic of the NumPy update step.";

static PyObject *
cover_update(PyObject *self, PyObject *args)
{
    Py_ssize_t seed_node;
    Py_buffer member_offsets_buf, member_sets_buf, covered_buf;
    Py_buffer set_offsets_buf, set_nodes_buf, coverage_buf;

    (void)self;
    if (!PyArg_ParseTuple(args, "ny*y*w*y*y*w*",
                          &seed_node, &member_offsets_buf, &member_sets_buf,
                          &covered_buf, &set_offsets_buf, &set_nodes_buf,
                          &coverage_buf))
        return NULL;

    const int64_t *member_offsets = (const int64_t *)member_offsets_buf.buf;
    const int64_t *member_sets = (const int64_t *)member_sets_buf.buf;
    uint8_t *covered = (uint8_t *)covered_buf.buf;
    const int64_t *set_offsets = (const int64_t *)set_offsets_buf.buf;
    const int64_t *set_nodes = (const int64_t *)set_nodes_buf.buf;
    int64_t *coverage = (int64_t *)coverage_buf.buf;

    int64_t newly_covered = 0;
    const int64_t first = member_offsets[seed_node];
    const int64_t last = member_offsets[seed_node + 1];

    Py_BEGIN_ALLOW_THREADS
    for (int64_t slot = first; slot < last; slot++) {
        const int64_t set_id = member_sets[slot];
        if (covered[set_id])
            continue;
        covered[set_id] = 1;
        newly_covered++;
        const int64_t stop = set_offsets[set_id + 1];
        for (int64_t member = set_offsets[set_id]; member < stop; member++)
            coverage[set_nodes[member]] -= 1;
    }
    Py_END_ALLOW_THREADS

    PyBuffer_Release(&member_offsets_buf);
    PyBuffer_Release(&member_sets_buf);
    PyBuffer_Release(&covered_buf);
    PyBuffer_Release(&set_offsets_buf);
    PyBuffer_Release(&set_nodes_buf);
    PyBuffer_Release(&coverage_buf);
    return PyLong_FromLongLong((long long)newly_covered);
}

/* ------------------------------------------------------------------ */
/* Module plumbing                                                      */
/* ------------------------------------------------------------------ */

static PyMethodDef rrnative_methods[] = {
    {"sample_chunk", sample_chunk, METH_VARARGS, sample_chunk_doc},
    {"cover_update", cover_update, METH_VARARGS, cover_update_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef rrnative_module = {
    PyModuleDef_HEAD_INIT,
    "repro.propagation._rrnative",
    "Compiled core of the RR kernel and the greedy cover update.",
    -1,
    rrnative_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__rrnative(void)
{
    return PyModule_Create(&rrnative_module);
}

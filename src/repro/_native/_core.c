/* Native hot core: the event queue and the wire-codec primitives.
 *
 * A hand-written CPython extension (no Cython/mypyc) implementing the two
 * measured hot paths of the framework with the *exact* semantics of their
 * pure-python counterparts:
 *
 *  - ``Event`` / ``EventQueue`` from ``repro.core.events``: a C struct
 *    event (virtual time, priority and sequence number stored as native
 *    scalars, the ``Timestamp`` namedtuple materialised lazily on first
 *    ``.ts`` access) plus a binary min-heap queue with push/pop_ready/
 *    peek/next_time/snapshot/restore, monotone sequence stamping at push,
 *    and the ``CausalityError`` past-scheduling check.
 *
 *  - the codec primitives from ``repro.transport.codec``: LEB128 uvarint
 *    with a strict 64-bit cap, zigzag ints, the frame-scoped string
 *    intern table, the tagged scalar/container value codec, and the
 *    fully bounds-checked frame ``Reader``.  Message-level assembly
 *    stays in python; nested-message encode/decode calls back through
 *    the hooks registered by ``codec_bind``.
 *
 * The loader shim (``repro._native.__init__``) imports this module when
 * the compiled artefact is present and ``PIA_PURE`` is unset; everything
 * degrades silently to the pure implementations otherwise.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#if PY_VERSION_HEX < 0x030c0000
#include <structmember.h>
#endif
#ifndef Py_T_OBJECT
#define Py_T_OBJECT T_OBJECT
#endif
#ifndef Py_READONLY
#define Py_READONLY READONLY
#endif

#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* module state (single-interpreter statics)                           */
/* ------------------------------------------------------------------ */

static PyObject *g_Timestamp;        /* repro.core.timestamp.Timestamp   */
static PyObject *g_CausalityError;   /* repro.core.errors.CausalityError */
static PyObject *g_TransportError;   /* repro.core.errors.TransportError */
static PyObject *g_pickle_dumps;
static PyObject *g_pickle_loads;
static PyObject *g_pickle_proto;     /* PyLong: pickle.HIGHEST_PROTOCOL  */
static long g_priority_signal = 10;  /* timestamp.PRIORITY_SIGNAL        */

/* bound lazily by repro.transport.codec via codec_bind()               */
static PyObject *g_MessageClass;
static PyObject *g_put_message;      /* python: (out, message, strings)  */
static PyObject *g_read_message;     /* python: (reader) -> Message      */

static PyObject *g_str_code;         /* interned "code"                  */

/* value tags — must match repro.transport.codec                        */
#define V_NONE    0
#define V_TRUE    1
#define V_FALSE   2
#define V_INT     3
#define V_FLOAT   4
#define V_STR     5
#define V_BYTES   6
#define V_TUPLE   7
#define V_LIST    8
#define V_DICT    9
#define V_MESSAGE 10
#define V_PICKLE  11

static PyObject *
transport_error(const char *format, ...)
{
    va_list vargs;
    va_start(vargs, format);
    PyObject *msg = PyUnicode_FromFormatV(format, vargs);
    va_end(vargs);
    if (msg == NULL)
        return NULL;
    PyErr_SetObject(g_TransportError, msg);
    Py_DECREF(msg);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Event                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double time;
    long priority;
    long long seq;
    PyObject *ts_cache;   /* the Timestamp, materialised lazily; NULL
                             after the queue restamps the event */
    PyObject *kind;
    PyObject *target;
    PyObject *payload;
    PyObject *token;
    PyObject *cause;
    long code;            /* kind.code, or -1 when unknown */
} EventObject;

static PyTypeObject Event_Type;

/* tiny pointer-keyed cache for kind.code: EventKind has four members,
 * all singletons, so a linear scan beats a getattr per construction. */
#define KIND_CACHE 8
static PyObject *g_kind_cache[KIND_CACHE];
static long g_kind_codes[KIND_CACHE];
static int g_kind_count = 0;

static long
kind_code(PyObject *kind)
{
    for (int i = 0; i < g_kind_count; i++) {
        if (g_kind_cache[i] == kind)
            return g_kind_codes[i];
    }
    PyObject *code = PyObject_GetAttr(kind, g_str_code);
    if (code == NULL) {
        PyErr_Clear();
        return -1;
    }
    long value = PyLong_AsLong(code);
    Py_DECREF(code);
    if (value == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    if (value >= 0 && g_kind_count < KIND_CACHE) {
        Py_INCREF(kind);
        g_kind_cache[g_kind_count] = kind;
        g_kind_codes[g_kind_count++] = value;
    }
    return value;
}

/* Extract (time, priority, seq) out of a Timestamp (or anything with
 * those attributes); a bare float/int is promoted to "time at default
 * signal priority", mirroring the pure Event constructor. */
static int
event_set_ts(EventObject *self, PyObject *ts)
{
    if (Py_TYPE(ts) == (PyTypeObject *)g_Timestamp
            && PyTuple_Check(ts) && PyTuple_GET_SIZE(ts) == 3) {
        double time = PyFloat_AsDouble(PyTuple_GET_ITEM(ts, 0));
        if (time == -1.0 && PyErr_Occurred())
            return -1;
        long priority = PyLong_AsLong(PyTuple_GET_ITEM(ts, 1));
        if (priority == -1 && PyErr_Occurred())
            return -1;
        long long seq = PyLong_AsLongLong(PyTuple_GET_ITEM(ts, 2));
        if (seq == -1 && PyErr_Occurred())
            return -1;
        self->time = time;
        self->priority = priority;
        self->seq = seq;
        Py_INCREF(ts);
        Py_XSETREF(self->ts_cache, ts);
        return 0;
    }
    /* Subclasses too (numpy scalars): the pure constructor's isinstance. */
    if (PyFloat_Check(ts) || PyLong_Check(ts)) {
        double time = PyFloat_AsDouble(ts);
        if (time == -1.0 && PyErr_Occurred())
            return -1;
        self->time = time;
        self->priority = g_priority_signal;
        self->seq = 0;
        Py_CLEAR(self->ts_cache);
        return 0;
    }
    /* duck-typed timestamp */
    PyObject *item = PyObject_GetAttrString(ts, "time");
    if (item == NULL)
        return -1;
    double time = PyFloat_AsDouble(item);
    Py_DECREF(item);
    if (time == -1.0 && PyErr_Occurred())
        return -1;
    item = PyObject_GetAttrString(ts, "priority");
    if (item == NULL)
        return -1;
    long priority = PyLong_AsLong(item);
    Py_DECREF(item);
    if (priority == -1 && PyErr_Occurred())
        return -1;
    item = PyObject_GetAttrString(ts, "seq");
    if (item == NULL)
        return -1;
    long long seq = PyLong_AsLongLong(item);
    Py_DECREF(item);
    if (seq == -1 && PyErr_Occurred())
        return -1;
    self->time = time;
    self->priority = priority;
    self->seq = seq;
    Py_INCREF(ts);
    Py_XSETREF(self->ts_cache, ts);
    return 0;
}

static int
event_fill(EventObject *self, PyObject *ts, PyObject *kind, PyObject *target,
           PyObject *payload, PyObject *token, PyObject *cause)
{
    if (event_set_ts(self, ts) < 0)
        return -1;
    Py_INCREF(kind);
    Py_XSETREF(self->kind, kind);
    Py_INCREF(target);
    Py_XSETREF(self->target, target);
    if (payload == NULL)
        payload = Py_None;
    Py_INCREF(payload);
    Py_XSETREF(self->payload, payload);
    if (token == NULL)
        token = Py_None;
    Py_INCREF(token);
    Py_XSETREF(self->token, token);
    if (cause == NULL)
        cause = Py_None;
    Py_INCREF(cause);
    Py_XSETREF(self->cause, cause);
    self->code = kind_code(kind);
    return 0;
}

static PyObject *
Event_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EventObject *self = (EventObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->code = -1;
    if (PyTuple_GET_SIZE(args) == 0 && (kwds == NULL || PyDict_GET_SIZE(kwds) == 0)) {
        /* blank event for unpickling (__setstate__ fills it in) */
        return (PyObject *)self;
    }
    static char *kwlist[] = {"ts", "kind", "target", "payload", "token",
                             "cause", NULL};
    PyObject *ts, *kind, *target;
    PyObject *payload = NULL, *token = NULL, *cause = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO|OOO:Event", kwlist,
                                     &ts, &kind, &target, &payload, &token,
                                     &cause)) {
        Py_DECREF(self);
        return NULL;
    }
    if (event_fill(self, ts, kind, target, payload, token, cause) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static int
Event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->ts_cache);
    Py_VISIT(self->kind);
    Py_VISIT(self->target);
    Py_VISIT(self->payload);
    Py_VISIT(self->token);
    Py_VISIT(self->cause);
    return 0;
}

static int
Event_clear(EventObject *self)
{
    Py_CLEAR(self->ts_cache);
    Py_CLEAR(self->kind);
    Py_CLEAR(self->target);
    Py_CLEAR(self->payload);
    Py_CLEAR(self->token);
    Py_CLEAR(self->cause);
    return 0;
}

static void
Event_dealloc(EventObject *self)
{
    PyObject_GC_UnTrack(self);
    Event_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Build (or return the cached) Timestamp for this event. */
static PyObject *
event_timestamp(EventObject *self)
{
    if (self->ts_cache != NULL) {
        Py_INCREF(self->ts_cache);
        return self->ts_cache;
    }
    PyObject *time = PyFloat_FromDouble(self->time);
    if (time == NULL)
        return NULL;
    PyObject *priority = PyLong_FromLong(self->priority);
    if (priority == NULL) {
        Py_DECREF(time);
        return NULL;
    }
    PyObject *seq = PyLong_FromLongLong(self->seq);
    if (seq == NULL) {
        Py_DECREF(time);
        Py_DECREF(priority);
        return NULL;
    }
    PyObject *args[3] = {time, priority, seq};
    PyObject *ts = PyObject_Vectorcall(g_Timestamp, args, 3, NULL);
    Py_DECREF(time);
    Py_DECREF(priority);
    Py_DECREF(seq);
    if (ts == NULL)
        return NULL;
    Py_INCREF(ts);
    self->ts_cache = ts;
    return ts;
}

static PyObject *
Event_get_ts(EventObject *self, void *closure)
{
    return event_timestamp(self);
}

static PyObject *
Event_get_time(EventObject *self, void *closure)
{
    return PyFloat_FromDouble(self->time);
}

static PyObject *
Event_get_priority(EventObject *self, void *closure)
{
    return PyLong_FromLong(self->priority);
}

static PyObject *
Event_get_seq(EventObject *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
Event_get_code(EventObject *self, void *closure)
{
    if (self->code < 0) {
        /* mirror the pure property: self.kind.code, raising whatever
         * the attribute lookup raises for exotic kinds */
        if (self->kind == NULL) {
            PyErr_SetString(PyExc_AttributeError, "code");
            return NULL;
        }
        PyObject *code = PyObject_GetAttr(self->kind, g_str_code);
        if (code == NULL)
            return NULL;
        long value = PyLong_AsLong(code);
        if (value == -1 && PyErr_Occurred()) {
            Py_DECREF(code);
            return NULL;
        }
        self->code = value;
        return code;
    }
    return PyLong_FromLong(self->code);
}

static PyGetSetDef Event_getset[] = {
    {"ts", (getter)Event_get_ts, NULL,
     "Timestamp of this event (materialised lazily).", NULL},
    {"time", (getter)Event_get_time, NULL, "Virtual time (float).", NULL},
    {"priority", (getter)Event_get_priority, NULL, "Tie-break band.", NULL},
    {"seq", (getter)Event_get_seq, NULL, "Queue sequence number.", NULL},
    {"code", (getter)Event_get_code, NULL,
     "Dense EventKind index used by the dispatch table.", NULL},
    {NULL}
};

static PyMemberDef Event_members[] = {
    {"kind", Py_T_OBJECT, offsetof(EventObject, kind), Py_READONLY, NULL},
    {"target", Py_T_OBJECT, offsetof(EventObject, target), Py_READONLY, NULL},
    {"payload", Py_T_OBJECT, offsetof(EventObject, payload), Py_READONLY, NULL},
    {"token", Py_T_OBJECT, offsetof(EventObject, token), Py_READONLY, NULL},
    {"cause", Py_T_OBJECT, offsetof(EventObject, cause), Py_READONLY, NULL},
    {NULL}
};

static EventObject *
event_clone(EventObject *self)
{
    EventObject *copy = (EventObject *)Event_Type.tp_alloc(&Event_Type, 0);
    if (copy == NULL)
        return NULL;
    copy->time = self->time;
    copy->priority = self->priority;
    copy->seq = self->seq;
    copy->code = self->code;
    copy->ts_cache = self->ts_cache;
    Py_XINCREF(copy->ts_cache);
    copy->kind = self->kind;
    Py_XINCREF(copy->kind);
    copy->target = self->target;
    Py_XINCREF(copy->target);
    copy->payload = self->payload;
    Py_XINCREF(copy->payload);
    copy->token = self->token;
    Py_XINCREF(copy->token);
    copy->cause = self->cause;
    Py_XINCREF(copy->cause);
    return copy;
}

static PyObject *
Event_with_cause(EventObject *self, PyObject *cause)
{
    EventObject *copy = event_clone(self);
    if (copy == NULL)
        return NULL;
    Py_INCREF(cause);
    Py_XSETREF(copy->cause, cause);
    return (PyObject *)copy;
}

static PyObject *
event_state(EventObject *self)
{
    PyObject *ts = event_timestamp(self);
    if (ts == NULL)
        return NULL;
    PyObject *state = PyTuple_Pack(
        6, ts,
        self->kind ? self->kind : Py_None,
        self->target ? self->target : Py_None,
        self->payload ? self->payload : Py_None,
        self->token ? self->token : Py_None,
        self->cause ? self->cause : Py_None);
    Py_DECREF(ts);
    return state;
}

static PyObject *
Event_getstate(EventObject *self, PyObject *ignored)
{
    return event_state(self);
}

static PyObject *
Event_setstate(EventObject *self, PyObject *state)
{
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 6) {
        PyErr_SetString(PyExc_ValueError, "invalid Event state");
        return NULL;
    }
    if (event_fill(self, PyTuple_GET_ITEM(state, 0),
                   PyTuple_GET_ITEM(state, 1), PyTuple_GET_ITEM(state, 2),
                   PyTuple_GET_ITEM(state, 3), PyTuple_GET_ITEM(state, 4),
                   PyTuple_GET_ITEM(state, 5)) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Event_reduce(EventObject *self, PyObject *ignored)
{
    /* Rebuild through repro._native.rebuild_event, which resolves the
     * *active* Event backend at unpickle time — a frame pickled by a
     * compiled node loads fine on a pure-python one and vice versa. */
    PyObject *shim = PyImport_ImportModule("repro._native");
    if (shim == NULL)
        return NULL;
    PyObject *rebuild = PyObject_GetAttrString(shim, "rebuild_event");
    Py_DECREF(shim);
    if (rebuild == NULL)
        return NULL;
    PyObject *state = event_state(self);
    if (state == NULL) {
        Py_DECREF(rebuild);
        return NULL;
    }
    PyObject *result = PyTuple_Pack(2, rebuild, state);
    Py_DECREF(rebuild);
    Py_DECREF(state);
    return result;
}

static PyObject *
Event_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_EQ && op != Py_NE)
        Py_RETURN_NOTIMPLEMENTED;
    if (Py_TYPE(a) != &Event_Type || Py_TYPE(b) != &Event_Type)
        Py_RETURN_NOTIMPLEMENTED;
    EventObject *lhs = (EventObject *)a, *rhs = (EventObject *)b;
    int equal = (lhs->time == rhs->time
                 && lhs->priority == rhs->priority
                 && lhs->seq == rhs->seq
                 && lhs->kind == rhs->kind);
    if (equal) {
        static const size_t fields[3] = {
            offsetof(EventObject, target), offsetof(EventObject, payload),
            offsetof(EventObject, token)};
        for (int i = 0; i < 3 && equal; i++) {
            PyObject *lv = *(PyObject **)((char *)lhs + fields[i]);
            PyObject *rv = *(PyObject **)((char *)rhs + fields[i]);
            equal = PyObject_RichCompareBool(lv ? lv : Py_None,
                                             rv ? rv : Py_None, Py_EQ);
            if (equal < 0)
                return NULL;
        }
        if (equal) {
            equal = PyObject_RichCompareBool(
                lhs->cause ? lhs->cause : Py_None,
                rhs->cause ? rhs->cause : Py_None, Py_EQ);
            if (equal < 0)
                return NULL;
        }
    }
    if (op == Py_NE)
        equal = !equal;
    return PyBool_FromLong(equal);
}

static Py_hash_t
Event_hash(EventObject *self)
{
    PyObject *ts = event_timestamp(self);
    if (ts == NULL)
        return -1;
    PyObject *key = PyTuple_Pack(3, ts,
                                 self->kind ? self->kind : Py_None,
                                 self->target ? self->target : Py_None);
    Py_DECREF(ts);
    if (key == NULL)
        return -1;
    Py_hash_t result = PyObject_Hash(key);
    Py_DECREF(key);
    return result;
}

static PyObject *
Event_repr(EventObject *self)
{
    PyObject *ts = event_timestamp(self);
    if (ts == NULL)
        return NULL;
    PyObject *text = PyUnicode_FromFormat(
        "Event(ts=%R, kind=%R, target=%R", ts,
        self->kind ? self->kind : Py_None,
        self->target ? self->target : Py_None);
    Py_DECREF(ts);
    if (text == NULL)
        return NULL;
    struct {const char *label; PyObject *value;} extras[3] = {
        {", payload=%R", self->payload},
        {", token=%R", self->token},
        {", cause=%R", self->cause},
    };
    for (int i = 0; i < 3; i++) {
        if (extras[i].value == NULL || extras[i].value == Py_None)
            continue;
        PyObject *part = PyUnicode_FromFormat(extras[i].label,
                                              extras[i].value);
        if (part == NULL) {
            Py_DECREF(text);
            return NULL;
        }
        PyObject *joined = PyUnicode_Concat(text, part);
        Py_DECREF(text);
        Py_DECREF(part);
        if (joined == NULL)
            return NULL;
        text = joined;
    }
    PyObject *close = PyUnicode_FromString(")");
    if (close == NULL) {
        Py_DECREF(text);
        return NULL;
    }
    PyObject *result = PyUnicode_Concat(text, close);
    Py_DECREF(text);
    Py_DECREF(close);
    return result;
}

static PyMethodDef Event_methods[] = {
    {"with_cause", (PyCFunction)Event_with_cause, METH_O,
     "Return a copy carrying ``cause`` as its cause span."},
    {"__getstate__", (PyCFunction)Event_getstate, METH_NOARGS, NULL},
    {"__setstate__", (PyCFunction)Event_setstate, METH_O, NULL},
    {"__reduce__", (PyCFunction)Event_reduce, METH_NOARGS, NULL},
    {NULL}
};

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._core.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_repr = (reprfunc)Event_repr,
    .tp_hash = (hashfunc)Event_hash,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One schedulable occurrence (native hot-core implementation).",
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear,
    .tp_richcompare = Event_richcompare,
    .tp_methods = Event_methods,
    .tp_members = Event_members,
    .tp_getset = Event_getset,
    .tp_new = Event_new,
};

/* ------------------------------------------------------------------ */
/* EventQueue                                                          */
/* ------------------------------------------------------------------ */

typedef struct {
    double time;
    long priority;
    long long seq;
    PyObject *event;      /* owned */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    HeapEntry *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    long long next_seq;
} QueueObject;

static PyTypeObject Queue_Type;

static inline int
entry_lt(const HeapEntry *a, const HeapEntry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->seq < b->seq;
}

static void
heap_siftdown(HeapEntry *heap, Py_ssize_t startpos, Py_ssize_t pos)
{
    HeapEntry item = heap[pos];
    while (pos > startpos) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (entry_lt(&item, &heap[parent])) {
            heap[pos] = heap[parent];
            pos = parent;
        } else {
            break;
        }
    }
    heap[pos] = item;
}

static void
heap_siftup(HeapEntry *heap, Py_ssize_t pos, Py_ssize_t size)
{
    HeapEntry item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && entry_lt(&heap[child + 1], &heap[child]))
            child += 1;
        if (entry_lt(&heap[child], &item)) {
            heap[pos] = heap[child];
            pos = child;
        } else {
            break;
        }
    }
    heap[pos] = item;
}

static void
heap_heapify(HeapEntry *heap, Py_ssize_t size)
{
    for (Py_ssize_t i = size / 2 - 1; i >= 0; i--)
        heap_siftup(heap, i, size);
}

static int
queue_reserve(QueueObject *self, Py_ssize_t wanted)
{
    if (wanted <= self->capacity)
        return 0;
    Py_ssize_t capacity = self->capacity ? self->capacity : 64;
    while (capacity < wanted)
        capacity *= 2;
    HeapEntry *heap = PyMem_Realloc(self->heap,
                                    capacity * sizeof(HeapEntry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->capacity = capacity;
    return 0;
}

static PyObject *
Queue_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    QueueObject *self = (QueueObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    self->next_seq = 0;
    return (PyObject *)self;
}

static int
Queue_traverse(QueueObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->heap[i].event);
    return 0;
}

static int
Queue_clear_impl(QueueObject *self)
{
    Py_ssize_t size = self->size;
    self->size = 0;
    for (Py_ssize_t i = 0; i < size; i++)
        Py_CLEAR(self->heap[i].event);
    return 0;
}

static void
Queue_dealloc(QueueObject *self)
{
    PyObject_GC_UnTrack(self);
    Queue_clear_impl(self);
    PyMem_Free(self->heap);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Py_ssize_t
Queue_len(QueueObject *self)
{
    return self->size;
}

static int
Queue_bool(QueueObject *self)
{
    return self->size > 0;
}

/* format a double the way python's ``f"{x:g}"`` does */
static PyObject *
format_g(double value)
{
    char *text = PyOS_double_to_string(value, 'g', 6, 0, NULL);
    if (text == NULL)
        return NULL;
    PyObject *result = PyUnicode_FromString(text);
    PyMem_Free(text);
    return result;
}

static PyObject *
Queue_push(QueueObject *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    double now = -Py_HUGE_VAL;
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError,
                        "push() takes exactly one positional argument");
        return NULL;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            if (PyUnicode_CompareWithASCIIString(name, "now") == 0) {
                now = PyFloat_AsDouble(args[nargs + i]);
                if (now == -1.0 && PyErr_Occurred())
                    return NULL;
            } else {
                PyErr_Format(PyExc_TypeError,
                             "push() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    PyObject *arg = args[0];
    if (Py_TYPE(arg) != &Event_Type) {
        PyErr_Format(PyExc_TypeError,
                     "native EventQueue.push needs a native Event, got %.80s",
                     Py_TYPE(arg)->tp_name);
        return NULL;
    }
    EventObject *event = (EventObject *)arg;
    if (event->time < now) {
        PyObject *at = format_g(event->time);
        PyObject *past = at ? format_g(now) : NULL;
        if (past != NULL) {
            PyObject *msg = PyUnicode_FromFormat(
                "event at %U scheduled in the past of %U", at, past);
            if (msg != NULL) {
                PyErr_SetObject(g_CausalityError, msg);
                Py_DECREF(msg);
            }
        }
        Py_XDECREF(at);
        Py_XDECREF(past);
        return NULL;
    }
    if (queue_reserve(self, self->size + 1) < 0)
        return NULL;
    /* stamp in place: fresh monotone sequence number, lazily
     * re-materialised Timestamp (mirrors the pure implementation) */
    event->seq = self->next_seq++;
    Py_CLEAR(event->ts_cache);
    HeapEntry *entry = &self->heap[self->size];
    entry->time = event->time;
    entry->priority = event->priority;
    entry->seq = event->seq;
    Py_INCREF(event);
    entry->event = (PyObject *)event;
    self->size += 1;
    heap_siftdown(self->heap, 0, self->size - 1);
    Py_INCREF(event);
    return (PyObject *)event;
}

static PyObject *
queue_pop_root(QueueObject *self)
{
    PyObject *event = self->heap[0].event;   /* ownership moves to caller */
    self->size -= 1;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        heap_siftup(self->heap, 0, self->size);
    }
    return event;
}

static PyObject *
Queue_pop_ready(QueueObject *self, PyObject *bound_obj)
{
    double bound = PyFloat_AsDouble(bound_obj);
    if (bound == -1.0 && PyErr_Occurred())
        return NULL;
    if (self->size == 0 || self->heap[0].time > bound)
        Py_RETURN_NONE;
    return queue_pop_root(self);
}

static PyObject *
Queue_peek(QueueObject *self, PyObject *ignored)
{
    if (self->size == 0)
        Py_RETURN_NONE;
    PyObject *event = self->heap[0].event;
    Py_INCREF(event);
    return event;
}

static PyObject *
Queue_next_time(QueueObject *self, PyObject *ignored)
{
    if (self->size == 0)
        return PyFloat_FromDouble(Py_HUGE_VAL);
    return PyFloat_FromDouble(self->heap[0].time);
}

static int
entry_cmp_qsort(const void *a, const void *b)
{
    const HeapEntry *lhs = a, *rhs = b;
    if (entry_lt(lhs, rhs))
        return -1;
    if (entry_lt(rhs, lhs))
        return 1;
    return 0;
}

static PyObject *
Queue_snapshot(QueueObject *self, PyObject *ignored)
{
    Py_ssize_t size = self->size;
    PyObject *result = PyList_New(size);
    if (result == NULL)
        return NULL;
    if (size > 0) {
        HeapEntry *sorted_entries = PyMem_Malloc(size * sizeof(HeapEntry));
        if (sorted_entries == NULL) {
            Py_DECREF(result);
            PyErr_NoMemory();
            return NULL;
        }
        memcpy(sorted_entries, self->heap, size * sizeof(HeapEntry));
        qsort(sorted_entries, size, sizeof(HeapEntry), entry_cmp_qsort);
        for (Py_ssize_t i = 0; i < size; i++) {
            PyObject *event = sorted_entries[i].event;
            Py_INCREF(event);
            PyList_SET_ITEM(result, i, event);
        }
        PyMem_Free(sorted_entries);
    }
    return result;
}

static PyObject *
Queue_restore(QueueObject *self, PyObject *events)
{
    PyObject *sequence = PySequence_Fast(
        events, "restore() needs a sequence of events");
    if (sequence == NULL)
        return NULL;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(sequence);
    for (Py_ssize_t i = 0; i < count; i++) {
        if (Py_TYPE(PySequence_Fast_GET_ITEM(sequence, i)) != &Event_Type) {
            PyErr_Format(
                PyExc_TypeError,
                "native EventQueue.restore needs native Events, got %.80s",
                Py_TYPE(PySequence_Fast_GET_ITEM(sequence, i))->tp_name);
            Py_DECREF(sequence);
            return NULL;
        }
    }
    if (queue_reserve(self, count) < 0) {
        Py_DECREF(sequence);
        return NULL;
    }
    Queue_clear_impl(self);
    for (Py_ssize_t i = 0; i < count; i++) {
        EventObject *event =
            (EventObject *)PySequence_Fast_GET_ITEM(sequence, i);
        HeapEntry *entry = &self->heap[i];
        entry->time = event->time;
        entry->priority = event->priority;
        entry->seq = event->seq;
        Py_INCREF(event);
        entry->event = (PyObject *)event;
    }
    self->size = count;
    Py_DECREF(sequence);
    heap_heapify(self->heap, self->size);
    Py_RETURN_NONE;
}

static PySequenceMethods Queue_as_sequence = {
    .sq_length = (lenfunc)Queue_len,
};

static PyNumberMethods Queue_as_number = {
    .nb_bool = (inquiry)Queue_bool,
};

static PyMethodDef Queue_methods[] = {
    {"push", (PyCFunction)(void (*)(void))Queue_push,
     METH_FASTCALL | METH_KEYWORDS,
     "Insert an event, stamping a fresh sequence number in place; "
     "scheduling into the past of ``now`` raises CausalityError."},
    {"pop_ready", (PyCFunction)Queue_pop_ready, METH_O,
     "Pop the earliest event iff its time is <= bound, else None."},
    {"peek", (PyCFunction)Queue_peek, METH_NOARGS,
     "Earliest event without removing it, or None."},
    {"next_time", (PyCFunction)Queue_next_time, METH_NOARGS,
     "Virtual time of the earliest event, inf when empty."},
    {"snapshot", (PyCFunction)Queue_snapshot, METH_NOARGS,
     "Pending events in delivery order (queue unchanged)."},
    {"restore", (PyCFunction)Queue_restore, METH_O,
     "Replace the queue contents in place (stamps preserved)."},
    {NULL}
};

static PyTypeObject Queue_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._core.EventQueue",
    .tp_basicsize = sizeof(QueueObject),
    .tp_dealloc = (destructor)Queue_dealloc,
    .tp_as_sequence = &Queue_as_sequence,
    .tp_as_number = &Queue_as_number,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Deterministic priority queue of events (native).",
    .tp_traverse = (traverseproc)Queue_traverse,
    .tp_clear = (inquiry)Queue_clear_impl,
    .tp_methods = Queue_methods,
    .tp_new = Queue_new,
};

/* ------------------------------------------------------------------ */
/* codec primitives: encoder                                           */
/* ------------------------------------------------------------------ */

static int
ba_extend(PyObject *out, const unsigned char *data, Py_ssize_t length)
{
    Py_ssize_t old = PyByteArray_GET_SIZE(out);
    if (PyByteArray_Resize(out, old + length) < 0)
        return -1;
    memcpy(PyByteArray_AS_STRING(out) + old, data, length);
    return 0;
}

static int
write_u8(PyObject *out, unsigned char value)
{
    return ba_extend(out, &value, 1);
}

static int
write_uvarint_u64(PyObject *out, uint64_t value)
{
    unsigned char buffer[10];
    int count = 0;
    while (value > 0x7F) {
        buffer[count++] = (unsigned char)((value & 0x7F) | 0x80);
        value >>= 7;
    }
    buffer[count++] = (unsigned char)value;
    return ba_extend(out, buffer, count);
}

static int
write_f64(PyObject *out, double value)
{
    uint64_t bits;
    unsigned char buffer[8];
    memcpy(&bits, &value, 8);
    for (int i = 0; i < 8; i++)
        buffer[i] = (unsigned char)(bits >> (8 * i));
    return ba_extend(out, buffer, 8);
}

/* uvarint extraction with the pure encoder's errors: TransportError on
 * negatives and on values past 64 bits. */
static int
uvarint_from_object(PyObject *value, uint64_t *result)
{
    if (!PyLong_Check(value)) {
        PyErr_Format(PyExc_TypeError, "varint field must be an int, got %.80s",
                     Py_TYPE(value)->tp_name);
        return -1;
    }
    uint64_t v = PyLong_AsUnsignedLongLong(value);
    if (v == (uint64_t)-1 && PyErr_Occurred()) {
        PyErr_Clear();
        PyObject *zero = PyLong_FromLong(0);
        if (zero == NULL)
            return -1;
        int negative = PyObject_RichCompareBool(value, zero, Py_LT);
        Py_DECREF(zero);
        if (negative < 0)
            return -1;
        if (negative)
            transport_error("negative varint field: %S", value);
        else
            transport_error("varint field exceeds 64 bits: %S", value);
        return -1;
    }
    *result = v;
    return 0;
}

static int
check_bytearray(PyObject *out)
{
    if (!PyByteArray_Check(out)) {
        PyErr_Format(PyExc_TypeError, "output must be a bytearray, got %.80s",
                     Py_TYPE(out)->tp_name);
        return -1;
    }
    return 0;
}

static int
put_uvarint_impl(PyObject *out, PyObject *value)
{
    uint64_t v;
    if (uvarint_from_object(value, &v) < 0)
        return -1;
    return write_uvarint_u64(out, v);
}

static int
put_str_impl(PyObject *out, PyObject *text, PyObject *strings)
{
    PyObject *index = PyDict_GetItemWithError(strings, text);
    if (index != NULL) {
        uint64_t i = PyLong_AsUnsignedLongLong(index);
        if (i == (uint64_t)-1 && PyErr_Occurred())
            return -1;
        return write_uvarint_u64(out, i << 1);
    }
    if (PyErr_Occurred())
        return -1;
    PyObject *data = PyUnicode_AsEncodedString(text, "utf-8", "surrogatepass");
    if (data == NULL)
        return -1;
    Py_ssize_t length = PyBytes_GET_SIZE(data);
    if (write_uvarint_u64(out, ((uint64_t)length << 1) | 1) < 0
            || ba_extend(out, (unsigned char *)PyBytes_AS_STRING(data),
                         length) < 0) {
        Py_DECREF(data);
        return -1;
    }
    Py_DECREF(data);
    PyObject *slot = PyLong_FromSsize_t(PyDict_GET_SIZE(strings));
    if (slot == NULL)
        return -1;
    int rc = PyDict_SetItem(strings, text, slot);
    Py_DECREF(slot);
    return rc;
}

static int
put_pickle_blob(PyObject *out, PyObject *value)
{
    PyObject *blob = PyObject_CallFunctionObjArgs(
        g_pickle_dumps, value, g_pickle_proto, NULL);
    if (blob == NULL)
        return -1;
    Py_ssize_t length = PyBytes_GET_SIZE(blob);
    if (write_uvarint_u64(out, (uint64_t)length) < 0
            || ba_extend(out, (unsigned char *)PyBytes_AS_STRING(blob),
                         length) < 0) {
        Py_DECREF(blob);
        return -1;
    }
    Py_DECREF(blob);
    return 0;
}

static int
put_value_impl(PyObject *out, PyObject *value, PyObject *strings)
{
    PyTypeObject *type = Py_TYPE(value);
    if (value == Py_None)
        return write_u8(out, V_NONE);
    if (type == &PyBool_Type)
        return write_u8(out, value == Py_True ? V_TRUE : V_FALSE);
    if (type == &PyLong_Type) {
        int overflow = 0;
        long long v = PyLong_AsLongLongAndOverflow(value, &overflow);
        if (v == -1 && !overflow && PyErr_Occurred())
            return -1;
        if (!overflow) {
            /* zigzag so small negatives stay small; ints beyond 64 bits
             * take the pickle leaf so the decoder keeps its strict cap */
            uint64_t z = ((uint64_t)v << 1) ^ (uint64_t)(v >> 63);
            if (write_u8(out, V_INT) < 0)
                return -1;
            return write_uvarint_u64(out, z);
        }
        /* falls through to the pickle leaf */
    } else if (type == &PyFloat_Type) {
        if (write_u8(out, V_FLOAT) < 0)
            return -1;
        return write_f64(out, PyFloat_AS_DOUBLE(value));
    } else if (type == &PyUnicode_Type) {
        if (write_u8(out, V_STR) < 0)
            return -1;
        return put_str_impl(out, value, strings);
    } else if (type == &PyBytes_Type) {
        Py_ssize_t length = PyBytes_GET_SIZE(value);
        if (write_u8(out, V_BYTES) < 0
                || write_uvarint_u64(out, (uint64_t)length) < 0)
            return -1;
        return ba_extend(out, (unsigned char *)PyBytes_AS_STRING(value),
                         length);
    } else if (type == &PyTuple_Type || type == &PyList_Type) {
        int is_tuple = type == &PyTuple_Type;
        Py_ssize_t count = is_tuple ? PyTuple_GET_SIZE(value)
                                    : PyList_GET_SIZE(value);
        if (write_u8(out, is_tuple ? V_TUPLE : V_LIST) < 0
                || write_uvarint_u64(out, (uint64_t)count) < 0)
            return -1;
        if (Py_EnterRecursiveCall(" while encoding a codec value"))
            return -1;
        for (Py_ssize_t i = 0; i < count; i++) {
            /* re-read per iteration: the recursive call may run
             * arbitrary python (pickle fallback) that mutates a list */
            PyObject *item = is_tuple ? PyTuple_GET_ITEM(value, i)
                                      : PyList_GET_ITEM(value, i);
            if (put_value_impl(out, item, strings) < 0) {
                Py_LeaveRecursiveCall();
                return -1;
            }
        }
        Py_LeaveRecursiveCall();
        return 0;
    } else if (type == &PyDict_Type) {
        if (write_u8(out, V_DICT) < 0
                || write_uvarint_u64(out,
                                     (uint64_t)PyDict_GET_SIZE(value)) < 0)
            return -1;
        if (Py_EnterRecursiveCall(" while encoding a codec value"))
            return -1;
        Py_ssize_t pos = 0;
        PyObject *key, *item;
        while (PyDict_Next(value, &pos, &key, &item)) {
            if (put_value_impl(out, key, strings) < 0
                    || put_value_impl(out, item, strings) < 0) {
                Py_LeaveRecursiveCall();
                return -1;
            }
        }
        Py_LeaveRecursiveCall();
        return 0;
    } else if (g_MessageClass != NULL
               && (PyObject *)type == g_MessageClass) {
        if (g_put_message == NULL) {
            PyErr_SetString(PyExc_RuntimeError,
                            "codec_bind() has not registered put_message");
            return -1;
        }
        if (write_u8(out, V_MESSAGE) < 0)
            return -1;
        PyObject *args[3] = {out, value, strings};
        PyObject *result = PyObject_Vectorcall(g_put_message, args, 3, NULL);
        if (result == NULL)
            return -1;
        Py_DECREF(result);
        return 0;
    }
    /* subclasses of the above land here too: exact-type checks keep
     * round-trips type-faithful (a bool-valued IntEnum stays itself) */
    if (write_u8(out, V_PICKLE) < 0)
        return -1;
    return put_pickle_blob(out, value);
}

static PyObject *
nat_put_uvarint(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "put_uvarint(out, value)");
        return NULL;
    }
    if (check_bytearray(args[0]) < 0 || put_uvarint_impl(args[0], args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
nat_put_str(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "put_str(out, s, strings)");
        return NULL;
    }
    if (check_bytearray(args[0]) < 0)
        return NULL;
    if (!PyUnicode_Check(args[1])) {
        PyErr_Format(PyExc_TypeError, "interned string must be str, got %.80s",
                     Py_TYPE(args[1])->tp_name);
        return NULL;
    }
    if (!PyDict_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "string table must be a dict");
        return NULL;
    }
    if (put_str_impl(args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
nat_put_value(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "put_value(out, value, strings)");
        return NULL;
    }
    if (check_bytearray(args[0]) < 0)
        return NULL;
    if (!PyDict_Check(args[2])) {
        PyErr_SetString(PyExc_TypeError, "string table must be a dict");
        return NULL;
    }
    if (put_value_impl(args[0], args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* codec primitives: the bounds-checked Reader                         */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    Py_buffer view;
    int has_view;
    const unsigned char *buf;
    Py_ssize_t pos;
    Py_ssize_t end;
    PyObject *strings;    /* list of interned strings, frame-scoped */
} ReaderObject;

static PyTypeObject Reader_Type;

static PyObject *
reader_fail(ReaderObject *self, const char *what)
{
    return transport_error("corrupt codec frame: %s at offset %zd",
                           what, self->pos);
}

static int
reader_uvarint(ReaderObject *self, uint64_t *result)
{
    const unsigned char *buf = self->buf;
    Py_ssize_t pos = self->pos, end = self->end;
    uint64_t value = 0;
    int shift = 0;
    for (;;) {
        if (pos >= end) {
            reader_fail(self, "truncated varint");
            return -1;
        }
        unsigned char byte = buf[pos++];
        if (shift == 63 && (byte & 0x7E)) {
            reader_fail(self, "varint overflow");
            return -1;
        }
        value |= (uint64_t)(byte & 0x7F) << shift;
        if (!(byte & 0x80))
            break;
        shift += 7;
        if (shift > 63) {
            reader_fail(self, "varint overflow");
            return -1;
        }
    }
    self->pos = pos;
    *result = value;
    return 0;
}

static int
reader_count(ReaderObject *self, Py_ssize_t *result)
{
    uint64_t n;
    if (reader_uvarint(self, &n) < 0)
        return -1;
    if (n > (uint64_t)(self->end - self->pos)) {
        transport_error(
            "corrupt codec frame: count %llu exceeds remaining frame "
            "at offset %zd", (unsigned long long)n, self->pos);
        return -1;
    }
    *result = (Py_ssize_t)n;
    return 0;
}

static int
reader_need(ReaderObject *self, Py_ssize_t wanted, const char *what)
{
    if (wanted < 0 || wanted > self->end - self->pos) {
        transport_error("corrupt codec frame: %s at offset %zd",
                        what, self->pos);
        return -1;
    }
    return 0;
}

static int
reader_u8(ReaderObject *self, unsigned char *result)
{
    if (self->pos >= self->end) {
        reader_fail(self, "truncated field (1 bytes wanted)");
        return -1;
    }
    *result = self->buf[self->pos++];
    return 0;
}

static int
reader_f64(ReaderObject *self, double *result)
{
    if (self->end - self->pos < 8) {
        reader_fail(self, "truncated float");
        return -1;
    }
    uint64_t bits = 0;
    const unsigned char *buf = self->buf + self->pos;
    for (int i = 0; i < 8; i++)
        bits |= (uint64_t)buf[i] << (8 * i);
    self->pos += 8;
    memcpy(result, &bits, 8);
    return 0;
}

static void
reader_fail_truncated(ReaderObject *self, uint64_t wanted)
{
    char what[64];
    snprintf(what, sizeof(what), "truncated field (%llu bytes wanted)",
             (unsigned long long)wanted);
    reader_fail(self, what);
}

static PyObject *
reader_strref(ReaderObject *self)
{
    uint64_t ref;
    if (reader_uvarint(self, &ref) < 0)
        return NULL;
    if (ref & 1) {
        uint64_t length = ref >> 1;
        if (length > (uint64_t)(self->end - self->pos)) {
            reader_fail_truncated(self, length);
            return NULL;
        }
        PyObject *text = PyUnicode_Decode(
            (const char *)(self->buf + self->pos), (Py_ssize_t)length,
            "utf-8", "surrogatepass");
        if (text == NULL) {
            PyErr_Clear();
            reader_fail(self, "undecodable string");
            return NULL;
        }
        self->pos += (Py_ssize_t)length;
        if (PyList_Append(self->strings, text) < 0) {
            Py_DECREF(text);
            return NULL;
        }
        return text;
    }
    uint64_t index = ref >> 1;
    if (index >= (uint64_t)PyList_GET_SIZE(self->strings)) {
        transport_error(
            "corrupt codec frame: string back-reference %llu out of range "
            "at offset %zd", (unsigned long long)index, self->pos);
        return NULL;
    }
    PyObject *text = PyList_GET_ITEM(self->strings, (Py_ssize_t)index);
    Py_INCREF(text);
    return text;
}

static PyObject *
reader_pickled(ReaderObject *self)
{
    uint64_t length;
    if (reader_uvarint(self, &length) < 0)
        return NULL;
    if (length > (uint64_t)(self->end - self->pos)) {
        reader_fail_truncated(self, length);
        return NULL;
    }
    PyObject *blob = PyBytes_FromStringAndSize(
        (const char *)(self->buf + self->pos), (Py_ssize_t)length);
    if (blob == NULL)
        return NULL;
    self->pos += (Py_ssize_t)length;
    PyObject *value = PyObject_CallOneArg(g_pickle_loads, blob);
    Py_DECREF(blob);
    if (value == NULL) {
        PyObject *type, *exc, *tb;
        PyErr_Fetch(&type, &exc, &tb);
        PyErr_NormalizeException(&type, &exc, &tb);
        PyObject *msg = PyUnicode_FromFormat(
            "cannot deserialise fallback payload: %S", exc ? exc : Py_None);
        if (msg != NULL) {
            PyObject *wrapped = PyObject_CallOneArg(g_TransportError, msg);
            Py_DECREF(msg);
            if (wrapped != NULL) {
                if (exc != NULL) {
                    Py_INCREF(exc);
                    PyException_SetCause(wrapped, exc);
                }
                PyErr_SetObject(g_TransportError, wrapped);
                Py_DECREF(wrapped);
            }
        }
        Py_XDECREF(type);
        Py_XDECREF(exc);
        Py_XDECREF(tb);
        return NULL;
    }
    return value;
}

static PyObject *reader_value(ReaderObject *self);

static PyObject *
reader_value_container(ReaderObject *self, unsigned char tag)
{
    Py_ssize_t count;
    if (reader_count(self, &count) < 0)
        return NULL;
    if (Py_EnterRecursiveCall(" while decoding a codec value"))
        return NULL;
    PyObject *result = NULL;
    if (tag == V_TUPLE || tag == V_LIST) {
        result = tag == V_TUPLE ? PyTuple_New(count) : PyList_New(count);
        if (result == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < count; i++) {
            PyObject *item = reader_value(self);
            if (item == NULL) {
                Py_CLEAR(result);
                goto done;
            }
            if (tag == V_TUPLE)
                PyTuple_SET_ITEM(result, i, item);
            else
                PyList_SET_ITEM(result, i, item);
        }
    } else {  /* V_DICT */
        result = PyDict_New();
        if (result == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < count; i++) {
            PyObject *key = reader_value(self);
            if (key == NULL) {
                Py_CLEAR(result);
                goto done;
            }
            PyObject *item = reader_value(self);
            if (item == NULL) {
                Py_DECREF(key);
                Py_CLEAR(result);
                goto done;
            }
            int rc = PyDict_SetItem(result, key, item);
            Py_DECREF(key);
            Py_DECREF(item);
            if (rc < 0) {
                Py_CLEAR(result);
                goto done;
            }
        }
    }
done:
    Py_LeaveRecursiveCall();
    return result;
}

static PyObject *
reader_value(ReaderObject *self)
{
    unsigned char tag;
    if (reader_u8(self, &tag) < 0)
        return NULL;
    switch (tag) {
    case V_NONE:
        Py_RETURN_NONE;
    case V_TRUE:
        Py_RETURN_TRUE;
    case V_FALSE:
        Py_RETURN_FALSE;
    case V_INT: {
        uint64_t z;
        if (reader_uvarint(self, &z) < 0)
            return NULL;
        uint64_t decoded = (z >> 1) ^ (~(z & 1) + 1);
        return PyLong_FromLongLong((long long)decoded);
    }
    case V_FLOAT: {
        double value;
        if (reader_f64(self, &value) < 0)
            return NULL;
        return PyFloat_FromDouble(value);
    }
    case V_STR:
        return reader_strref(self);
    case V_BYTES: {
        uint64_t length;
        if (reader_uvarint(self, &length) < 0)
            return NULL;
        if (length > (uint64_t)(self->end - self->pos)) {
            reader_fail_truncated(self, length);
            return NULL;
        }
        PyObject *blob = PyBytes_FromStringAndSize(
            (const char *)(self->buf + self->pos), (Py_ssize_t)length);
        if (blob != NULL)
            self->pos += (Py_ssize_t)length;
        return blob;
    }
    case V_TUPLE:
    case V_LIST:
    case V_DICT:
        return reader_value_container(self, tag);
    case V_MESSAGE: {
        if (g_read_message == NULL) {
            PyErr_SetString(PyExc_RuntimeError,
                            "codec_bind() has not registered read_message");
            return NULL;
        }
        return PyObject_CallOneArg(g_read_message, (PyObject *)self);
    }
    case V_PICKLE:
        return reader_pickled(self);
    default:
        transport_error("corrupt codec frame: unknown value tag %d "
                        "at offset %zd", (int)tag, self->pos);
        return NULL;
    }
}

static PyObject *
Reader_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *blob;
    Py_ssize_t pos = 0;
    if (!PyArg_ParseTuple(args, "O|n:Reader", &blob, &pos))
        return NULL;
    ReaderObject *self = (ReaderObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    if (PyObject_GetBuffer(blob, &self->view, PyBUF_SIMPLE) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    self->has_view = 1;
    self->buf = self->view.buf;
    self->end = self->view.len;
    self->pos = pos < 0 ? 0 : (pos > self->end ? self->end : pos);
    self->strings = PyList_New(0);
    if (self->strings == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
Reader_dealloc(ReaderObject *self)
{
    if (self->has_view)
        PyBuffer_Release(&self->view);
    Py_CLEAR(self->strings);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Reader_u8(ReaderObject *self, PyObject *ignored)
{
    unsigned char value;
    if (reader_u8(self, &value) < 0)
        return NULL;
    return PyLong_FromLong(value);
}

static PyObject *
Reader_uvarint(ReaderObject *self, PyObject *ignored)
{
    uint64_t value;
    if (reader_uvarint(self, &value) < 0)
        return NULL;
    return PyLong_FromUnsignedLongLong(value);
}

static PyObject *
Reader_count(ReaderObject *self, PyObject *ignored)
{
    Py_ssize_t value;
    if (reader_count(self, &value) < 0)
        return NULL;
    return PyLong_FromSsize_t(value);
}

static PyObject *
Reader_take(ReaderObject *self, PyObject *arg)
{
    Py_ssize_t wanted = PyLong_AsSsize_t(arg);
    if (wanted == -1 && PyErr_Occurred())
        return NULL;
    char what[64];
    snprintf(what, sizeof(what), "truncated field (%zd bytes wanted)",
             wanted);
    if (reader_need(self, wanted, what) < 0)
        return NULL;
    PyObject *result = PyBytes_FromStringAndSize(
        (const char *)(self->buf + self->pos), wanted);
    if (result != NULL)
        self->pos += wanted;
    return result;
}

static PyObject *
Reader_f64(ReaderObject *self, PyObject *ignored)
{
    double value;
    if (reader_f64(self, &value) < 0)
        return NULL;
    return PyFloat_FromDouble(value);
}

static PyObject *
Reader_strref(ReaderObject *self, PyObject *ignored)
{
    return reader_strref(self);
}

static PyObject *
Reader_value(ReaderObject *self, PyObject *ignored)
{
    return reader_value(self);
}

static PyObject *
Reader_pickled(ReaderObject *self, PyObject *ignored)
{
    return reader_pickled(self);
}

static PyObject *
Reader_fail_method(ReaderObject *self, PyObject *what)
{
    /* mirrors the pure reader: *returns* the exception for the caller
     * to raise */
    PyObject *msg = PyUnicode_FromFormat(
        "corrupt codec frame: %S at offset %zd", what, self->pos);
    if (msg == NULL)
        return NULL;
    PyObject *error = PyObject_CallOneArg(g_TransportError, msg);
    Py_DECREF(msg);
    return error;
}

static PyObject *
Reader_done(ReaderObject *self, PyObject *ignored)
{
    if (self->pos != self->end) {
        transport_error("corrupt codec frame: %zd trailing bytes",
                        self->end - self->pos);
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
Reader_get_pos(ReaderObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->pos);
}

static PyObject *
Reader_get_end(ReaderObject *self, void *closure)
{
    return PyLong_FromSsize_t(self->end);
}

static PyObject *
Reader_get_strings(ReaderObject *self, void *closure)
{
    Py_INCREF(self->strings);
    return self->strings;
}

static PyGetSetDef Reader_getset[] = {
    {"pos", (getter)Reader_get_pos, NULL, "Cursor offset.", NULL},
    {"end", (getter)Reader_get_end, NULL, "Frame length.", NULL},
    {"strings", (getter)Reader_get_strings, NULL,
     "Frame-scoped intern table.", NULL},
    {NULL}
};

static PyMethodDef Reader_methods[] = {
    {"u8", (PyCFunction)Reader_u8, METH_NOARGS, "One unsigned byte."},
    {"uvarint", (PyCFunction)Reader_uvarint, METH_NOARGS,
     "LEB128 varint with a strict 64-bit cap."},
    {"count", (PyCFunction)Reader_count, METH_NOARGS,
     "A container count, rejected when it exceeds the remaining bytes."},
    {"take", (PyCFunction)Reader_take, METH_O, "n raw bytes."},
    {"f64", (PyCFunction)Reader_f64, METH_NOARGS, "Little-endian double."},
    {"strref", (PyCFunction)Reader_strref, METH_NOARGS,
     "Interned string: definition or back-reference."},
    {"value", (PyCFunction)Reader_value, METH_NOARGS,
     "One tagged codec value."},
    {"pickled", (PyCFunction)Reader_pickled, METH_NOARGS,
     "Length-prefixed pickle blob."},
    {"fail", (PyCFunction)Reader_fail_method, METH_O,
     "Build (not raise) a TransportError at the current offset."},
    {"done", (PyCFunction)Reader_done, METH_NOARGS,
     "Raise unless the cursor consumed the whole frame."},
    {NULL}
};

static PyTypeObject Reader_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._native._core.Reader",
    .tp_basicsize = sizeof(ReaderObject),
    .tp_dealloc = (destructor)Reader_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Bounds-checked cursor over one codec frame (native).",
    .tp_methods = Reader_methods,
    .tp_getset = Reader_getset,
    .tp_new = Reader_new,
};

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
nat_codec_bind(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"message_class", "put_message", "read_message",
                             NULL};
    PyObject *message_class, *put_message, *read_message;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO:codec_bind", kwlist,
                                     &message_class, &put_message,
                                     &read_message))
        return NULL;
    Py_INCREF(message_class);
    Py_XSETREF(g_MessageClass, message_class);
    Py_INCREF(put_message);
    Py_XSETREF(g_put_message, put_message);
    Py_INCREF(read_message);
    Py_XSETREF(g_read_message, read_message);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"put_uvarint", (PyCFunction)(void (*)(void))nat_put_uvarint,
     METH_FASTCALL, "Append a LEB128 uvarint to a bytearray."},
    {"put_str", (PyCFunction)(void (*)(void))nat_put_str, METH_FASTCALL,
     "Append an interned string (definition or back-reference)."},
    {"put_value", (PyCFunction)(void (*)(void))nat_put_value, METH_FASTCALL,
     "Append one tagged codec value."},
    {"codec_bind", (PyCFunction)(void (*)(void))nat_codec_bind,
     METH_VARARGS | METH_KEYWORDS,
     "Register the python-level message hooks used for nested messages."},
    {NULL}
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._native._core",
    .m_doc = "Native hot core: event queue and codec primitives.",
    .m_size = -1,
    .m_methods = module_methods,
};

static PyObject *
import_attr(const char *module_name, const char *attr)
{
    PyObject *module = PyImport_ImportModule(module_name);
    if (module == NULL)
        return NULL;
    PyObject *value = PyObject_GetAttrString(module, attr);
    Py_DECREF(module);
    return value;
}

PyMODINIT_FUNC
PyInit__core(void)
{
    g_str_code = PyUnicode_InternFromString("code");
    if (g_str_code == NULL)
        return NULL;
    g_Timestamp = import_attr("repro.core.timestamp", "Timestamp");
    if (g_Timestamp == NULL)
        return NULL;
    PyObject *priority = import_attr("repro.core.timestamp",
                                     "PRIORITY_SIGNAL");
    if (priority == NULL)
        return NULL;
    g_priority_signal = PyLong_AsLong(priority);
    Py_DECREF(priority);
    if (g_priority_signal == -1 && PyErr_Occurred())
        return NULL;
    g_CausalityError = import_attr("repro.core.errors", "CausalityError");
    if (g_CausalityError == NULL)
        return NULL;
    g_TransportError = import_attr("repro.core.errors", "TransportError");
    if (g_TransportError == NULL)
        return NULL;
    g_pickle_dumps = import_attr("pickle", "dumps");
    if (g_pickle_dumps == NULL)
        return NULL;
    g_pickle_loads = import_attr("pickle", "loads");
    if (g_pickle_loads == NULL)
        return NULL;
    g_pickle_proto = import_attr("pickle", "HIGHEST_PROTOCOL");
    if (g_pickle_proto == NULL)
        return NULL;

    if (PyType_Ready(&Event_Type) < 0 || PyType_Ready(&Queue_Type) < 0
            || PyType_Ready(&Reader_Type) < 0)
        return NULL;

    PyObject *module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&Event_Type);
    if (PyModule_AddObject(module, "Event", (PyObject *)&Event_Type) < 0)
        return NULL;
    Py_INCREF(&Queue_Type);
    if (PyModule_AddObject(module, "EventQueue",
                           (PyObject *)&Queue_Type) < 0)
        return NULL;
    Py_INCREF(&Reader_Type);
    if (PyModule_AddObject(module, "Reader", (PyObject *)&Reader_Type) < 0)
        return NULL;
    return module;
}

"""Vertex-marked multigraph model of a nodal curve's dual graph.

Components are vertices and nodes are edges; a loop is a self-node of a
single component and is never a reducible node.  Subcurves are encoded as
integer bitmasks over the component indices, so every set operation is exact,
hashable and cheap.  Node incidence is built with the graph, one mask of
non-loop nodes per component: a terminal mask is the XOR of its members'
masks, and the nodes joining two components are the AND of theirs.  All
values are immutable after construction.  Derived data (the tail table,
nested families, the twister table, the node subdivision) is computed once
per graph by functions decorated with `per_graph`, which keep it in the
graph's single memo: the only store written after construction.  That
ownership is one-way: nothing in a memo refers back to its graph strongly
(the node subdivision refers to its base weakly), so a graph and its derived
data are freed by reference counting once its last user drops it, with no
wait for the cyclic collector.  Tails and their terminal masks come from one
binary-partition (bond) search, `tail_table`, which its readers index; the
memoized `term_mask` serves other subcurves.  The s-tails, s <= 3, have one
source on every graph, `_unmarked_k_tails`: the unmarked side of each tail
pair with its terminal mask, which `k_tails(s <= 3)` closes under
complement.  Here it reads the tail table; the node subdivision overrides it
with a closed form.
"""

from __future__ import annotations

import json
from functools import wraps
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple

from .errors import GraphError, PreconditionError

def members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_FLIP = str.maketrans("01", "10")


def canon_key(mask: int):
    """Sort key: by size, then lexicographically on the vertex tuple.

    Equal-size masks first differ, as tuples and as binary digits read from
    bit 0 up, at the lowest bit of their symmetric difference; with 0 and 1
    swapped, the digit strings sort as the tuples do, without building them.
    """
    return (mask.bit_count(), bin(mask)[:1:-1].translate(_FLIP))


_MISS = object()  # no memoized function returns it


def per_graph(fn):
    """Memoize fn(G, *args) in G's memo under the key (fn, *args).

    The key is the positional arguments, so fn may have no defaults (a
    defaulted and an explicit argument would be two entries) and is called
    without keywords.  A call that raises stores nothing, so errors are
    never cached.  A lookup is a `get`, not a caught KeyError, since misses
    are common: about one lookup in three in the synchronization suites.
    The wrapper has fn's arity, one to three arguments, so no call packs its
    arguments.
    """
    if fn.__defaults__ or fn.__kwdefaults__:
        raise TypeError(f"per_graph cannot memoize {fn.__qualname__}: "
                        "it has default arguments")
    arity = fn.__code__.co_argcount

    if arity == 1:
        def cached(G, /):
            value = G._memo.get((fn,), _MISS)
            if value is _MISS:
                value = G._memo[(fn,)] = fn(G)
            return value
    elif arity == 2:
        def cached(G, a, /):
            value = G._memo.get((fn, a), _MISS)
            if value is _MISS:
                value = G._memo[(fn, a)] = fn(G, a)
            return value
    elif arity == 3:
        def cached(G, a, b, /):
            value = G._memo.get((fn, a, b), _MISS)
            if value is _MISS:
                value = G._memo[(fn, a, b)] = fn(G, a, b)
            return value
    else:
        raise TypeError(f"per_graph cannot memoize {fn.__qualname__}: "
                        f"it takes {arity} arguments, not one to three")
    return wraps(fn)(cached)


class Node(NamedTuple):
    """One node of the curve: an edge joining two (possibly equal) components."""

    id: str
    a: int
    b: int

    @property
    def is_loop(self) -> bool:
        return self.a == self.b


class CurveGraph:
    """Connected multigraph with ordered components and a marked component."""

    __slots__ = (
        "names",
        "nodes",
        "marked",
        "full_mask",
        "_index",
        "_node_index",
        "_nbr",
        "_inc",
        "_hash",
        "_memo",
        "__weakref__",
    )

    def __init__(self, names: Iterable[str], nodes: Iterable[Node], marked: int):
        names = tuple(names)
        nodes = tuple(nodes)
        if not names:
            raise GraphError("a curve graph needs at least one component")
        index: dict[str, int] = {}
        for i, nm in enumerate(names):
            if not isinstance(nm, str):
                raise GraphError(f"component name {nm!r} is not a string")
            if nm in index:
                raise GraphError(f"duplicate component name {nm!r}")
            index[nm] = i
        if not 0 <= marked < len(names):
            raise GraphError(f"marked component index {marked} out of range")
        node_index: dict[str, int] = {}
        for i, nd in enumerate(nodes):
            if not isinstance(nd.id, str):
                raise GraphError(f"node id {nd.id!r} is not a string")
            if nd.id in node_index:
                raise GraphError(f"duplicate node id {nd.id!r}")
            node_index[nd.id] = i
            for e in (nd.a, nd.b):
                if not 0 <= e < len(names):
                    raise GraphError(f"node {nd.id!r} endpoint {e} out of range")
        self.names = names
        self.nodes = nodes
        self.marked = marked
        self.full_mask = (1 << len(names)) - 1
        self._index = index
        self._node_index = node_index
        nbr = [0] * len(names)
        inc = [0] * len(names)  # per component, its non-loop nodes
        for t, nd in enumerate(nodes):
            if not nd.is_loop:
                nbr[nd.a] |= 1 << nd.b
                nbr[nd.b] |= 1 << nd.a
                inc[nd.a] |= 1 << t
                inc[nd.b] |= 1 << t
        self._nbr = tuple(nbr)
        self._inc = tuple(inc)
        self._hash = hash((names, nodes, marked))
        self._memo: dict[tuple, object] = {}
        if not self.connected(self.full_mask):
            raise GraphError("the multigraph is disconnected")

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, CurveGraph)
            and self.names == other.names
            and self.nodes == other.nodes
            and self.marked == other.marked
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"CurveGraph({list(self.names)}, "
            f"{[(n.id, self.names[n.a], self.names[n.b]) for n in self.nodes]}, "
            f"marked={self.names[self.marked]!r})"
        )

    # -- lookups ----------------------------------------------------------

    @property
    def p(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown component {name!r}") from None

    def node_index(self, node_id: str) -> int:
        try:
            return self._node_index[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id!r}") from None

    def subcurve(self, items: Iterable[str | int]) -> int:
        """Bitmask of the subcurve spanned by component names or indices."""
        m = 0
        for it in items:
            m |= 1 << (it if isinstance(it, int) else self.index(it))
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in members(mask))

    def node_ids(self, node_mask: int) -> tuple[str, ...]:
        return tuple(self.nodes[i].id for i in members(node_mask))

    # -- connectivity and terminal data ------------------------------------

    def _reach(self, mask: int, start: int) -> int:
        """The vertices joined to the start set by paths inside mask."""
        seen = frontier = start
        nbr = self._nbr
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & mask & ~seen
            seen |= frontier
        return seen

    def connected(self, mask: int) -> bool:
        return self._reach(mask, mask & -mask) == mask

    @per_graph
    def term_mask(self, mask: int) -> int:
        """Bitmask over node indices of the terminal nodes of a subcurve.

        Loops never count; the full and empty subcurves have no terminal
        nodes by definition.  A node is terminal when exactly one of its
        ends lies in the subcurve, so this is the XOR of the members'
        incident nodes.
        """
        t = 0
        inc = self._inc
        while mask:
            low = mask & -mask
            t ^= inc[low.bit_length() - 1]
            mask ^= low
        return t

    def joining(self, i: int, j: int) -> int:
        """Bitmask over node indices of the nodes joining components i and j;
        0 when i == j, since loops are never counted."""
        return self._inc[i] & self._inc[j] if i != j else 0

    def k(self, mask: int) -> int:
        return self.term_mask(mask).bit_count()

    def is_proper(self, mask: int) -> bool:
        return mask != 0 and mask != self.full_mask

    def is_tail(self, mask: int) -> bool:
        return (
            self.is_proper(mask)
            and self.connected(mask)
            and self.connected(self.full_mask ^ mask)
        )

    # -- tail enumeration ---------------------------------------------------

    @per_graph
    def tail_table(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Every tail in canonical order, and their terminal masks in parallel.

        A binary-partition search over pairs (S, X): S is connected and holds
        component 0, and X holds frontier vertices kept out of S.  A pair
        branches on its lowest frontier vertex v outside X, which joins S or
        joins X, and a branch is kept only while X lies inside one component
        of the rest, so no branch is wasted.  At a leaf the whole frontier is
        in X, so the rest is connected: S and its complement are a tail pair,
        and each pair is reached exactly once.  Each branch carries S's
        terminal mask, XORing in v's incident nodes when v joins S, and a
        tail's complement shares it.
        """
        full, nbr, inc, reach = self.full_mask, self._nbr, self._inc, self._reach
        p = self.p
        out = []
        stack = [(1, 0, nbr[0], inc[0])]
        while stack:
            s, x, front, ts = stack.pop()
            free = front & ~x
            if not free:
                if s != full:
                    ts <<= p
                    out += (ts | s, ts | (full ^ s))
                continue
            v = free & -free
            grown = s | v
            if reach(full ^ grown, x & -x) & x == x:
                i = v.bit_length() - 1
                stack.append((grown, x, (front | nbr[i]) & ~grown, ts ^ inc[i]))
            if reach(full ^ s, v) & x == x:
                stack.append((s, x | v, front, ts))
        out.sort(key=lambda c: canon_key(c & full))
        return tuple([c & full for c in out]), tuple([c >> p for c in out])

    def tails(self) -> tuple[int, ...]:
        """Every tail, canonically ordered: the masks of `tail_table`."""
        return self.tail_table()[0]

    @per_graph
    def k_tails(self, kk: int) -> tuple[int, ...]:
        """The tails with kk terminal nodes, canonically ordered.  For
        kk <= 3 this is the unmarked pool closed under complement, since a
        tail and its complement share their terminal nodes."""
        if kk > 3:
            return tuple(z for z, tz in zip(*self.tail_table()) if tz.bit_count() == kk)
        full = self.full_mask
        half = [z for z, _ in self._unmarked_k_tails(kk)]
        return tuple(sorted(half + [full ^ z for z in half], key=canon_key))

    def _unmarked_k_tails(self, kk: int) -> tuple[tuple[int, int], ...]:
        """The kk-tails (kk <= 3) avoiding the marked component, one side of
        each tail pair, each with its terminal mask, canonically ordered: the
        pool that `tails._pool_index` indexes and `k_tails` closes.  Here
        read off the tail table; the node subdivision derives them in closed
        form instead."""
        marked_bit = 1 << self.marked
        return tuple((z, tz) for z, tz in zip(*self.tail_table())
                     if not z & marked_bit and tz.bit_count() == kk)

    def reducible_nodes(self) -> tuple[int, ...]:
        """Indices of the reducible nodes, i.e. all non-loop edges."""
        return tuple(i for i, nd in enumerate(self.nodes) if not nd.is_loop)

    # -- serialization ------------------------------------------------------

    def to_spec(self) -> dict:
        return {
            "components": list(self.names),
            "marked": self.names[self.marked],
            "nodes": [
                {"id": nd.id, "ends": [self.names[nd.a], self.names[nd.b]]}
                for nd in self.nodes
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_spec(), sort_keys=True)

    def _dot_style(self) -> tuple[str, list[str]]:
        """The DOT graph name and each vertex's shape."""
        return "curve", ["doublecircle" if i == self.marked else "circle"
                         for i in range(self.p)]

    def to_dot(self) -> str:
        """One DOT line per vertex, with its shape, and one edge line per
        node, labelled with the node id."""
        q, names = dot_quote, self.names
        name, shapes = self._dot_style()
        lines = [f"graph {name} {{"]
        lines += [f"  {q(nm)} [shape={shape}];" for nm, shape in zip(names, shapes)]
        lines += [f"  {q(names[nd.a])} -- {q(names[nd.b])} [label={q(nd.id)}];"
                  for nd in self.nodes]
        lines.append("}")
        return "\n".join(lines)


def dot_quote(name: str) -> str:
    """A name as a DOT quoted string, with backslash and double quote escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise GraphError(f"{what} must be a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        # a lone surrogate ("\ud800" in JSON) has no UTF-8 form to print
        raise GraphError(f"{what} {value!r} is not valid Unicode text") from None
    return value


def validate(data: dict) -> CurveGraph:
    """Build a CurveGraph from its JSON description, checking every invariant.

    Component entries may be bare names or objects with a ``name`` key;
    extra per-component fields (``genus`` in particular) are accepted and
    ignored, since nothing downstream depends on them.  Types are strict:
    ``components`` and ``nodes`` are arrays, names, node ids, ``marked`` and
    endpoints are strings, and ``ends`` is an array of two.  Anything else
    raises GraphError; nothing is coerced.
    """
    if not isinstance(data, dict):
        raise GraphError("graph description must be a JSON object")
    try:
        comp_spec = data["components"]
        marked_name = data["marked"]
    except KeyError as exc:
        raise GraphError(f"missing field {exc.args[0]!r}") from None
    node_spec = data.get("nodes", [])
    for key, spec in (("components", comp_spec), ("nodes", node_spec)):
        if not isinstance(spec, list):
            raise GraphError(f"{key!r} must be a JSON array, got {spec!r}")
    names = []
    for entry in comp_spec:
        if isinstance(entry, dict):
            if "name" not in entry:
                raise GraphError(f"component object without a name: {entry!r}")
            entry = entry["name"]
        names.append(_string(entry, "component name"))
    index = {nm: i for i, nm in enumerate(names)}
    if len(index) != len(names):
        raise GraphError("duplicate component name")
    if _string(marked_name, "marked component") not in index:
        raise GraphError(f"marked component {marked_name!r} not among components")
    nodes = []
    for entry in node_spec:
        if not isinstance(entry, dict) or "id" not in entry or "ends" not in entry:
            raise GraphError(f"malformed node entry {entry!r}")
        nid = _string(entry["id"], "node id")
        ends = entry["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise GraphError(f"node {nid!r} needs an array of exactly two endpoints")
        for e in ends:
            if _string(e, f"node {nid!r} endpoint") not in index:
                raise GraphError(f"node {nid!r} endpoint {e!r} unknown")
        a, b = sorted(index[e] for e in ends)
        nodes.append(Node(nid, a, b))
    return CurveGraph(names, nodes, index[marked_name])


def _json_object(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; a repeated key is an error,
    never a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise PreconditionError(f"duplicate JSON key {key!r}")
        obj[key] = value
    return obj


def _json_int(text: str) -> int:
    """An integer literal; one with more digits than the interpreter converts
    (sys.get_int_max_str_digits) is an error, never a bare ValueError."""
    try:
        return int(text)
    except ValueError:
        raise PreconditionError(
            f"integer literal of {len(text)} characters is too long") from None


def read_json(arg: str, inline: bool = False):
    """The JSON value of the file at path arg, or of arg itself when inline:
    the one reader of every JSON input (graph, plan, dump, multidegree).
    Bytes that are not UTF-8, nesting too deep for the parser, an integer
    literal too long to convert and an object that repeats a key raise
    PreconditionError."""
    try:
        if not inline:
            with open(arg, "r", encoding="utf-8") as fh:
                arg = fh.read()
        return json.loads(arg, object_pairs_hook=_json_object, parse_int=_json_int)
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"input is not UTF-8: {exc}") from None
    except RecursionError:
        raise PreconditionError("input JSON is nested too deeply") from None


def write_json(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`: the one writer of every
    indented JSON output (graph, plan, report, dump, command payload)."""
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list) -> None:
    """Append the text of value to out, where newline is a line break plus
    the indent of the line value starts on.

    With an indent the stdlib encodes in pure Python, so the values outputs
    are built from (exact str, int, bool and None, lists, tuples, and dicts
    whose keys are all str) take this short recursion, every piece appended
    to the one buffer.  Anything else is the stdlib's own text with every
    line break indented to where value sits, which is exact because
    ASCII-escaped JSON holds no raw newline.
    """
    t = type(value)
    if t is str:
        out.append(encode_basestring_ascii(value))
    elif t is list or t is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif t is dict and all(type(k) is str for k in value):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k in sorted(value):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write_json(value[k], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif t is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif t is bool:
        out.append("true" if value else "false")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def load(path: str) -> CurveGraph:
    return validate(read_json(path))


def precedes(G: CurveGraph, Z: int, Zp: int) -> bool:
    """Fast strict-containment-with-disjoint-terminals test (Z before Zp)."""
    return Z != Zp and Z & Zp == Z and not (G.term_mask(Z) & G.term_mask(Zp))

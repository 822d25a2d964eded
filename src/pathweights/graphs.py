"""Undirected labelled graphs and exhaustive simple-path enumeration.

Vertices are opaque strings. Edges are unordered pairs without self-loops.

Every path computation in the package runs on one engine, :func:`_walk`: an
iterative, level-by-level walk of the simple paths from one source over
integer vertex indices and each vertex's neighbours sorted by label (lists
for narrow levels, a padded table, built on first use, for wide ones). Each
frontier row is a path from the source; it carries its vertex set as a
bitmask over 64-bit words (the on-path test and the key that determinant
sharing groups paths by) and the running product of an optional edge matrix,
multiplied left to right from the source. One walk from a source serves every
pair that starts there (betweenness, path rankings); a single-pair walk stops
at the target and first prunes the graph to the biconnected blocks on the
route between the two vertices in the block-cut tree (Hopcroft and Tarjan,
1973), which holds every simple path between them, so tree-like graphs cost
time in proportion to their output. The walk has no recursion, so long chains
are fine, and expands large frontiers in chunks, so memory stays bounded.

:func:`enumerate_paths` is a thin wrapper over the walk: its result list is
deterministic (sorted by vertex sequence) and independent of insertion order.
Enumeration is guarded by a hard cap and errors out rather than truncating, so
downstream decomposition sums are never silently incomplete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InvalidPathError, PathExplosionError, UnknownVertexError

#: Default ceiling on the number of enumerated paths per vertex pair.
DEFAULT_PATH_CAP = 1_000_000

#: Frontier rows expanded at once by the walk; bounds its working memory.
_CHUNK_ROWS = 1 << 14

#: Widest frontier level the walk expands row by row rather than with numpy.
_NARROW_ROWS = 64

_WORD_MASK = (1 << 64) - 1


def _normalize_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class Graph:
    """Undirected graph with ordered vertex labels and no self-loops."""

    __slots__ = ("vertices", "edges", "_index", "_rank", "_names", "_nbr_lists",
                 "_indptr", "_indices", "_table", "_blockcut")

    def __init__(self, vertices: Sequence[str], edges: Iterable[Sequence[str]] = ()):
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise ValueError("vertex labels must be unique")
        norm: set[tuple[str, str]] = set()
        for pair in edges:
            u, v = pair
            if u == v:
                raise ValueError(f"self-loop {u!r}--{v!r} is not allowed")
            missing = [w for w in (u, v) if w not in index]
            if missing:
                raise UnknownVertexError(missing)
            norm.add(_normalize_edge(u, v))
        self.vertices = vertices
        self.edges = frozenset(norm)
        # integer view for the path walk: vertex i is vertices[i], and
        # _names[i] in an object array that gathers the labels of index
        # arrays. Its neighbours, sorted by label, are _nbr_lists[i], and in
        # CSR form _indices[_indptr[i]:_indptr[i + 1]] (and in table form, row
        # i of _neighbour_table(), built when a walk first needs it); _rank[i]
        # is the label rank of i (_rank[-1] = -1 ranks the -1 padding of path
        # rows).
        n = len(vertices)
        self._index = index
        self._names = np.array(vertices, dtype=object)
        self._rank = np.full(n + 1, -1, dtype=np.int32)
        self._rank[[index[v] for v in sorted(vertices)]] = np.arange(n)
        adj: list[list[str]] = [[] for _ in vertices]
        for u, v in norm:
            adj[index[u]].append(v)
            adj[index[v]].append(u)
        self._nbr_lists = [[index[w] for w in sorted(ns)] for ns in adj]
        self._indptr = np.cumsum([0] + [len(ns) for ns in self._nbr_lists], dtype=np.intp)
        self._indices = np.array([w for ns in self._nbr_lists for w in ns], dtype=np.int32)
        self._table = None
        self._blockcut = _BlockCutTree(self)

    def _neighbour_table(self) -> np.ndarray:
        """Each vertex's neighbours in label order, one row per vertex, padded
        to the largest degree with the row's own vertex (which is on every path
        that ends there): O(n * largest degree), built on the first call and
        kept. Its row-major order is the CSR order."""
        table = self._table
        if table is None:  # two threads may both build it; either copy serves
            degree = np.diff(self._indptr)
            table = np.repeat(np.arange(len(degree), dtype=np.int32)[:, None], degree.max(initial=0), axis=1)
            table[np.arange(table.shape[1]) < degree[:, None]] = self._indices
            self._table = table
        return table

    # -- basic accessors ---------------------------------------------------

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._index

    def has_edge(self, u: str, v: str) -> bool:
        return _normalize_edge(u, v) in self.edges

    def neighbors(self, v: str) -> tuple[str, ...]:
        if v not in self._index:
            raise UnknownVertexError([v])
        return tuple(self.vertices[w] for w in self._nbr_lists[self._index[v]])

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def sorted_edges(self) -> list[tuple[str, str]]:
        return sorted(self.edges)

    def require_vertices(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Validate membership and return ``labels`` in graph vertex order."""
        labels = set(labels)
        missing = labels - self._index.keys()
        if missing:
            raise UnknownVertexError(sorted(missing))
        return tuple(sorted(labels, key=self._index.__getitem__))

    def complement(self, labels: Iterable[str]) -> tuple[str, ...]:
        labels = set(self.require_vertices(labels))
        return tuple(v for v in self.vertices if v not in labels)

    # -- structure ----------------------------------------------------------

    def induced_subgraph(self, labels: Iterable[str]) -> "Graph":
        keep = self.require_vertices(labels)
        kset = set(keep)
        return Graph(keep, (e for e in self.edges if e[0] in kset and e[1] in kset))

    def components(self) -> list[tuple[str, ...]]:
        """Connected components as vertex tuples, in graph vertex order."""
        bc = self._blockcut
        groups: dict[int, list[str]] = {}
        for i, v in enumerate(self.vertices):
            groups.setdefault(bc.component[bc.node_of[i]], []).append(v)
        return [tuple(vs) for vs in groups.values()]

    def is_tree(self) -> bool:
        return len(self.components()) == 1 and len(self.edges) == len(self.vertices) - 1

    def bfs_distances(self, source: str, restrict: Iterable[str] | None = None) -> dict[str, int]:
        """Unweighted distances from ``source`` to every reachable vertex."""
        allowed = self._index if restrict is None else set(self.require_vertices(restrict))
        if source not in allowed:
            raise UnknownVertexError([source])
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in map(self.vertices.__getitem__, self._nbr_lists[self._index[u]]):
                if w in allowed and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def _mask(self, labels: Iterable[str]) -> np.ndarray:
        """Boolean vertex mask of ``labels`` (which must be vertices)."""
        mask = np.zeros(len(self.vertices), dtype=bool)
        mask[[self._index[v] for v in labels]] = True
        return mask

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class _BlockCutTree:
    """Biconnected blocks of a graph and its block-cut tree, rooted per component.

    Tree nodes ``0 .. len(blocks) - 1`` are blocks; each cut vertex adds one
    node after them. Every simple x-y path lies inside the union of the blocks
    on the tree path between the nodes of x and y (Hopcroft and Tarjan, 1973).
    """

    def __init__(self, graph: Graph):
        n = len(graph.vertices)
        adj = graph._nbr_lists
        blocks: list[set[int]] = []
        disc = [-1] * n
        low = [0] * n
        clock = 0
        for root in range(n):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = clock
            clock += 1
            if not adj[root]:
                blocks.append({root})
                continue
            stack = [(root, -1, iter(adj[root]))]
            edges: list[tuple[int, int]] = []
            while stack:
                u, parent, todo = stack[-1]
                for w in todo:
                    if disc[w] < 0:
                        disc[w] = low[w] = clock
                        clock += 1
                        edges.append((u, w))
                        stack.append((w, u, iter(adj[w])))
                        break
                    if w != parent and disc[w] < disc[u]:
                        edges.append((u, w))
                        low[u] = min(low[u], disc[w])
                else:
                    stack.pop()
                    if stack:
                        p = stack[-1][0]
                        low[p] = min(low[p], low[u])
                        if low[u] >= disc[p]:
                            block: set[int] = set()
                            while True:
                                e = edges.pop()
                                block.update(e)
                                if e == (p, u):
                                    break
                            blocks.append(block)
        member: list[list[int]] = [[] for _ in range(n)]
        for b, block in enumerate(blocks):
            for v in block:
                member[v].append(b)
        nodes = len(blocks)
        self.node_of = [0] * n
        tree: list[list[int]] = [[] for _ in blocks]
        for v in range(n):
            if len(member[v]) > 1:
                self.node_of[v] = nodes
                tree.append(member[v])
                for b in member[v]:
                    tree[b].append(nodes)
                nodes += 1
            else:
                self.node_of[v] = member[v][0]
        self.blocks = [np.fromiter(sorted(b), dtype=np.intp, count=len(b)) for b in blocks]
        self.parent = [-1] * nodes
        self.depth = [-1] * nodes
        self.component = [-1] * nodes
        for start in range(nodes):
            if self.depth[start] >= 0:
                continue
            self.depth[start] = 0
            self.component[start] = start
            queue = deque([start])
            while queue:
                a = queue.popleft()
                for b in tree[a]:
                    if self.depth[b] < 0:
                        self.depth[b] = self.depth[a] + 1
                        self.parent[b] = a
                        self.component[b] = start
                        queue.append(b)
        self.size = n

    def route(self, x: int, y: int) -> np.ndarray:
        """Mask of the vertices lying on some simple path between vertices
        ``x`` and ``y``: none when they are in different components."""
        a, b = self.node_of[x], self.node_of[y]
        mask = np.zeros(self.size, dtype=bool)
        if self.component[a] != self.component[b]:
            return mask
        on_route = []
        while a != b:
            if self.depth[a] < self.depth[b]:
                a, b = b, a
            on_route.append(a)
            a = self.parent[a]
        on_route.append(a)
        mask[np.concatenate([self.blocks[node] for node in on_route if node < len(self.blocks)])] = True
        return mask


@dataclass(frozen=True, slots=True)
class Path:
    """Simple path: an ordered sequence of at least two distinct vertices."""

    sequence: tuple[str, ...]

    def __post_init__(self):
        seq = tuple(self.sequence)
        _set_sequence(self, seq)
        if len(seq) < 2:
            raise InvalidPathError("a path needs at least two vertices")
        if len(set(seq)) != len(seq):
            raise InvalidPathError(f"path vertices must be distinct: {seq}")

    def __setstate__(self, state) -> None:
        # a list of field values, or the __dict__ that pickles of the
        # slotless class held (with a cached ``vertex_set`` perhaps)
        _set_sequence(self, state["sequence"] if isinstance(state, dict) else state[0])

    @property
    def x(self) -> str:
        return self.sequence[0]

    @property
    def y(self) -> str:
        return self.sequence[-1]

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.sequence)

    @property
    def interior(self) -> tuple[str, ...]:
        return self.sequence[1:-1]

    def edges(self) -> list[tuple[str, str]]:
        """Path edges as normalized pairs, in traversal order."""
        return [_normalize_edge(u, v) for u, v in zip(self.sequence, self.sequence[1:])]

    def reversed(self) -> "Path":
        return Path(self.sequence[::-1])

    def canonical(self) -> "Path":
        """Orientation with the lexicographically smaller endpoint first."""
        return self if self.x <= self.y else self.reversed()

    def __iter__(self) -> Iterator[str]:
        return iter(self.sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def __str__(self) -> str:
        return " -- ".join(self.sequence)


#: The slot setter of ``Path.sequence``, past the frozen ``__setattr__``.
_set_sequence = Path.sequence.__set__


def validate_path(graph: Graph, path: Path) -> None:
    """Raise InvalidPathError unless every consecutive pair of ``path`` is an
    edge of ``graph``, naming the unknown vertices or the first missing edge."""
    _path_indices(graph, path)


def _path_indices(graph: Graph, path: Path) -> list[int]:
    """The vertex indices of ``path``, checked as :func:`validate_path` checks it."""
    index, nbrs, names = graph._index, graph._nbr_lists, graph.vertices
    try:
        seq = [index[v] for v in path.sequence]
    except KeyError:
        missing = [v for v in path.sequence if v not in index]
        raise InvalidPathError(f"path visits unknown vertices: {missing}") from None
    for u, v in zip(seq, seq[1:]):
        if v not in nbrs[u]:
            raise InvalidPathError(f"{names[u]!r}--{names[v]!r} is not an edge of the graph")
    return seq


class PathRows(NamedTuple):
    """Paths as integer rows, the walk's output format.

    ``seqs[i, :lengths[i]]`` are the vertex indices of path i from its source
    (padded with -1); ``keys[i]`` is its vertex set as a bitmask over 64-bit
    words; ``prods[i]`` is the product of the walk's edge values along it,
    multiplied left to right from the source.
    """

    seqs: np.ndarray
    lengths: np.ndarray
    keys: np.ndarray
    prods: np.ndarray

    def paths(self, graph: Graph) -> list[Path]:
        """The rows as :class:`Path` objects (rows converted a chunk at a time,
        their labels gathered by one index of an object array per chunk, and
        cut to their lengths only where a row is shorter than the chunk)."""
        names, new, out = graph._names, object.__new__, []
        for i in range(0, len(self.seqs), _CHUNK_ROWS):
            seqs, lengths = self.seqs[i:i + _CHUNK_ROWS], self.lengths[i:i + _CHUNK_ROWS]
            rows = names[seqs].tolist()
            if (lengths < seqs.shape[1]).any():
                rows = [row[:n] for row, n in zip(rows, lengths.tolist())]
            paths = list(map(new, repeat(Path, len(rows))))  # unchecked: the walk gives legal sequences
            deque(map(_set_sequence, paths, map(tuple, rows)), maxlen=0)
            out += paths
        return out

    def take(self, order: np.ndarray) -> "PathRows":
        """The rows picked by the index array ``order`` (``np.take`` copies a
        2-D row whole, where fancy indexing copies it element by element)."""
        return PathRows(*(np.take(field, order, axis=0) for field in self))


def _walk(
    graph: Graph,
    src: int,
    dst: int = -1,
    allowed: np.ndarray | None = None,
    dist: np.ndarray | None = None,
    max_len: int | None = None,
    edge_values: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Simple paths from vertex index ``src``, level by level.

    Yields ``(seqs, keys, prods)`` blocks of paths of one length each, in the
    row format of :class:`PathRows` (no padding). The rows of each length are
    in lexicographic label order across all of that length's blocks, though
    blocks of different lengths interleave: chunks are expanded depth first,
    in order, and a row's extensions follow its last vertex's neighbours in
    label order. :func:`_by_target` and ``rank_paths`` rely on this order in
    place of a sort. With ``dst`` set, only the paths ending there are yielded
    and they are not extended; otherwise every row is a path to its last
    vertex and is yielded and extended. ``allowed`` masks the vertices a path
    may visit, ``dist`` (when given) only lets a path reach vertex w as its
    vertex number ``dist[w]``, which yields exactly the shortest paths, and
    ``max_len`` caps the vertex count. ``edge_values`` is a vertex-indexed
    matrix whose entries along each path are multiplied into ``prods`` (ones
    without it). The walk counts nothing: callers bound it with
    :func:`_capped`.

    A level costs a few dozen array operations however narrow it is, so
    levels of at most ``_NARROW_ROWS`` rows (the whole walk on a chain or a
    tree-like route) are expanded row by row in Python instead; both steps
    extend rows in the same order with the same arithmetic. Narrow levels
    read the CSR neighbour lists, so a walk that stays narrow costs O(edges)
    to set up however large one degree is. A wide chunk gathers, per row, the
    key bits of its last vertex's row of the neighbour table
    (:meth:`Graph._neighbour_table`, up to the chunk's largest degree), and
    its extensions are the free entries in row-major order; a walk that
    reaches a wide level sets up O(n * largest degree) table entries.
    """
    n = len(graph.vertices)
    indptr, indices = graph._indptr, graph._indices
    max_len = n if max_len is None else min(max_len, n)
    enter = np.ones(n, dtype=bool) if allowed is None else allowed
    words = (n + 63) // 64

    # narrow levels: rows are (vertex tuple, vertex-set bitmask as an int, product)
    along = np.ones(len(indices)) if edge_values is None else edge_values[
        np.repeat(np.arange(n), np.diff(indptr)), indices]
    nbr_lists, enter_list = graph._nbr_lists, enter.tolist()
    along_list, bounds = along.tolist(), indptr.tolist()
    along_lists = [along_list[a:b] for a, b in zip(bounds, bounds[1:])]
    dist_list = None if dist is None else dist.tolist()
    level = [((src,), 1 << src, 1.0)]
    length = 1
    while level and length < max_len and len(level) <= _NARROW_ROWS:
        grown, done = [], []
        for seq, key, prod in level:
            u = seq[-1]
            for w, k in zip(nbr_lists[u], along_lists[u]):
                if (enter_list[w] and not key >> w & 1
                        and (dist_list is None or dist_list[w] == length)):
                    (done if w == dst else grown).append((seq + (w,), key | 1 << w, prod * k))
        if dst < 0:
            done = grown
        if done:
            yield _rows_array(done, words)
        level = grown
        length += 1
    if not level or length >= max_len:
        return

    # wide levels: numpy, in chunks of at most _CHUNK_ROWS rows. The vertex
    # of table entry (u, c), flat entry u * width + c, is bit bit[u, c] of
    # word word[u, c] of a key; a vertex the walk may not enter takes the
    # source's bit instead, which every key has, so the on-path test rejects
    # it, as it rejects row u's padding u. A row's free entries, taken
    # row-major, are its extensions in the walk's order.
    table = graph._neighbour_table()
    width = table.shape[1]
    along = np.ones(table.shape) if edge_values is None else edge_values[np.arange(n)[:, None], table]
    vertex = np.where(enter, np.arange(n), src)
    word = None if words == 1 else (vertex >> 6)[table]
    bit = np.left_shift(np.uint64(1), (vertex & 63).astype(np.uint64))[table]
    level_of = None if dist is None else dist[table]
    flat_vertex, flat_bit, flat_along = table.ravel(), bit.ravel(), along.ravel()
    degree = np.diff(indptr)

    def extend(seqs, keys, prods, r, at):
        """Rows ``r`` extended along flat table entries ``at``."""
        grown = np.empty((len(r), seqs.shape[1] + 1), dtype=seqs.dtype)
        grown[:, :-1] = np.take(seqs, r, axis=0)
        grown[:, -1] = flat_vertex[at]
        keys = np.take(keys, r, axis=0)
        if words == 1:
            keys[:, 0] |= flat_bit[at]
        else:
            keys[np.arange(len(r)), word.ravel()[at]] |= flat_bit[at]
        return grown, keys, prods[r] * flat_along[at]

    stack = [_rows_array(level, words)]
    while stack:
        seqs, keys, prods = stack.pop()
        length = seqs.shape[1]
        last = seqs[:, -1]
        cols = slice(0, degree[last].max())  # the chunk's entries: up to its largest degree
        held = keys if words == 1 else np.take_along_axis(keys, word[last, cols], 1)
        free = (held & bit[last, cols]) == 0
        if level_of is not None:
            free &= level_of[last, cols] == length
        r, at = np.divmod(np.flatnonzero(free), cols.stop)
        at += last[r] * width
        grow = length + 1 < max_len
        if dst < 0:
            done = grown = extend(seqs, keys, prods, r, at)
        else:
            # split the entries into hits and the rest first, then build each part once
            hit = flat_vertex[at] == dst
            done = None
            if hit.any():
                done = extend(seqs, keys, prods, r[hit], at[hit])
                r, at = r[~hit], at[~hit]
            grown = extend(seqs, keys, prods, r, at) if grow else None
        if done is not None and len(done[0]):
            yield done
        if grow and len(grown[0]):
            seqs, keys, prods = grown
            stack += [(seqs[i:i + _CHUNK_ROWS], keys[i:i + _CHUNK_ROWS], prods[i:i + _CHUNK_ROWS])
                      for i in reversed(range(0, len(seqs), _CHUNK_ROWS))]


def _rows_array(rows: list, words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Python rows of one length as walk arrays; keys split into 64-bit words."""
    return (np.array([r[0] for r in rows], dtype=np.int32),
            np.array([[r[1] >> s & _WORD_MASK for s in range(0, 64 * words, 64)] for r in rows],
                     dtype=np.uint64),
            np.array([r[2] for r in rows]))


def _gather(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]], n: int) -> PathRows:
    """Stack walk blocks of an ``n``-vertex graph into one padded :class:`PathRows`, in yield order."""
    blocks = list(blocks)
    width = max((b[0].shape[1] for b in blocks), default=2)
    total = sum(len(b[0]) for b in blocks)
    seqs = np.full((total, width), -1, dtype=np.int32)
    lengths = np.empty(total, dtype=np.intp)
    start = 0
    for b in blocks:
        stop = start + len(b[0])
        seqs[start:stop, :b[0].shape[1]] = b[0]
        lengths[start:stop] = b[0].shape[1]
        start = stop
    if not blocks:
        return PathRows(seqs, lengths, np.zeros((0, (n + 63) // 64), dtype=np.uint64), np.ones(0))
    return PathRows(seqs, lengths, np.concatenate([b[1] for b in blocks]),
                    np.concatenate([b[2] for b in blocks]))


def _lex_order(graph: Graph, seqs: np.ndarray, *first: np.ndarray) -> np.ndarray:
    """Order of padded path rows by the ``first`` keys, then by label sequence.

    Comparing padded rows is exact here: two distinct simple paths to the same
    target differ before either one ends.

    The label ranks are packed as digits before sorting: rank + 1 (0 for the
    -1 padding) is one base-(n + 1) digit, and each int64 word holds as many
    consecutive columns as fit in 62 bits (17 for n = 11), so comparing the
    words in turn compares the columns in turn. The words are built column by
    column, without a rank matrix of the rows' size.
    """
    base = len(graph.vertices) + 1
    per_word = 1
    while per_word < seqs.shape[1] and base ** (per_word + 1) <= 1 << 62:
        per_word += 1
    digit = (graph._rank + 1).astype(np.int64)
    words = []
    for lo in range(0, seqs.shape[1], per_word):
        word = np.zeros(len(seqs), dtype=np.int64)
        for col in range(lo, min(lo + per_word, seqs.shape[1])):
            word *= base
            word += digit[seqs[:, col]]
        words.append(word)
    return np.lexsort((*words[::-1], *first[::-1]))


def _capped(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]], cap: int,
            n: int | None = None) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The walk blocks ``blocks``, the one path budget: a ``cap`` below 1 is a
    ValueError before any block is taken, and PathExplosionError(cap, cap + 1)
    is raised once more than ``cap`` rows have come in all or, given the
    vertex count ``n``, ending at one vertex (from one source: one pair)."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    found = 0 if n is None else np.zeros(n, dtype=np.int64)
    for block in blocks:
        if n is None:
            found += len(block[0])
            over = found > cap
        else:
            found += np.bincount(block[0][:, -1], minlength=n)
            over = found.max() > cap
        if over:
            raise PathExplosionError(cap=cap, found=cap + 1)
        yield block


def _by_target(graph: Graph, rows: PathRows) -> tuple[np.ndarray, list[int]]:
    """Order of a source's walk rows grouped by target, each group in walk
    order (a stable sort of small keys is a radix sort), and the bounds: the
    rows ending at vertex y are ``rows.take(order)[bounds[y]:bounds[y + 1]]``.
    A vertex set has one length and the walk yields each length's rows in
    label order, so in the first group that reaches a set, its first row is
    the label-first one, as in a label sort: a kernel takes the same blocks."""
    n = len(graph.vertices)
    last = rows.seqs[np.arange(len(rows.seqs)), rows.lengths - 1]
    order = np.argsort(last.astype(np.min_scalar_type(n)), kind="stable")
    return order, [0] + np.cumsum(np.bincount(last, minlength=n)).tolist()


def _pair_paths(
    graph: Graph,
    x: int,
    y: int,
    allowed: np.ndarray | None = None,
    max_len: int | None = None,
    cap: int = DEFAULT_PATH_CAP,
    edge_values: np.ndarray | None = None,
) -> PathRows:
    """All simple paths from vertex ``x`` to vertex ``y`` inside the vertex mask
    ``allowed``, lexicographic by label, at most ``cap`` of them (:func:`_capped`).

    ``allowed`` defaults to the x-y route of the block-cut tree, which holds
    every x-y path; callers with a vertex set pass the route masked by it.
    """
    if allowed is None:
        allowed = graph._blockcut.route(x, y)
    rows = _gather(_capped(_walk(graph, x, y, allowed=allowed, max_len=max_len,
                                 edge_values=edge_values), cap), len(graph.vertices))
    return rows.take(_lex_order(graph, rows.seqs))


def enumerate_paths(
    graph: Graph,
    x: str,
    y: str,
    restrict: Iterable[str] | None = None,
    max_len: int | None = None,
    cap: int = DEFAULT_PATH_CAP,
) -> list[Path]:
    """All simple paths from ``x`` to ``y``, lexicographic by vertex sequence.

    Parameters
    ----------
    restrict : optional vertex set
        When given, only paths whose vertices all lie in the set are produced
        (equivalent to enumerating on the induced subgraph). Must contain both
        endpoints.
    max_len : optional int
        Maximum number of vertices per path (default: all of them).
    cap : int
        Hard ceiling on the number of paths, at least 1; exceeding it raises
        PathExplosionError instead of truncating.
    """
    if x == y:
        raise ValueError("path endpoints must differ")
    graph.require_vertices([x, y])
    i, j = graph._index[x], graph._index[y]
    allowed = None
    if restrict is not None:
        labels = set(graph.require_vertices(restrict))
        if x not in labels or y not in labels:
            raise ValueError("restrict set must contain both endpoints")
        allowed = graph._blockcut.route(i, j) & graph._mask(labels)
    return _pair_paths(graph, i, j, allowed, max_len, cap).paths(graph)


def chords(graph: Graph, path: Path) -> list[tuple[str, str]]:
    """Edges joining two non-consecutive vertices of ``path``, sorted."""
    validate_path(graph, path)
    on_path = set(path.edges())
    pset = path.vertex_set
    return sorted(
        e for e in graph.edges if e[0] in pset and e[1] in pset and e not in on_path
    )


def is_chordless(graph: Graph, path: Path) -> bool:
    return not chords(graph, path)

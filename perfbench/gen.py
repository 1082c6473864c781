"""Seeded input generators for the serve benchmark.

Everything the daemon reads comes from here: the topology, the edge
probabilities (`.picm` text), the request streams and the attributed
evidence cascades (`src|nodes|edges`). The generators use their own
SplitMix64 stream and never call `infoflow simulate` or the learners, so a
change to the simulator or the trainers cannot change the inputs.
"""

import json

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Small deterministic PRNG; identical output on every Python version."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        return lo + (hi - lo) * ((self.next_u64() >> 11) * (1.0 / (1 << 53)))

    def below(self, n):
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def sample(self, seq, k):
        pool = list(seq)
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]


class Model:
    """A point ICM: `edges[i] = (u, v, p)`, plus adjacency for the generators."""

    def __init__(self, num_nodes, edges):
        self.num_nodes = num_nodes
        self.edges = edges
        self.out = [[] for _ in range(num_nodes)]
        for u, v, p in edges:
            self.out[u].append((v, p))

    def picm_text(self):
        lines = ["infoflow-point-icm v1", "nodes %d" % self.num_nodes,
                 "edges %d" % len(self.edges)]
        lines.extend("%d %d %r" % e for e in self.edges)
        return "\n".join(lines) + "\n"


def stratified_probs(rng, count, lo, hi):
    """`count` edge probabilities, one per equal slice of [lo, hi), in a
    random order: every seed's model gets the same spread of values."""
    probs = [lo + (hi - lo) * (i + rng.uniform()) / count
             for i in range(count)]
    return rng.sample(probs, count)


def preferential_attachment(rng, num_nodes, out_degree, reciprocity,
                            p_lo, p_hi):
    """Barabasi-Albert urn graph: node v links to `out_degree` earlier nodes
    drawn by in-degree + 1, each link reciprocated with `reciprocity`."""
    urn = [0]
    pairs = set()
    ordered = []
    for v in range(1, num_nodes):
        want = min(out_degree, v)
        targets = []
        while len(targets) < want:
            t = urn[rng.below(len(urn))]
            if t != v and t not in targets:
                targets.append(t)
        for t in targets:
            for edge in ((v, t), (t, v)) if rng.uniform() < reciprocity \
                    else ((v, t),):
                if edge not in pairs:
                    pairs.add(edge)
                    ordered.append(edge)
            urn.append(t)
        urn.append(v)
    ordered.sort()
    probs = stratified_probs(rng, len(ordered), p_lo, p_hi)
    return Model(num_nodes, [(u, v, p) for (u, v), p in zip(ordered, probs)])


def random_tree(rng, num_nodes, max_children, p_lo, p_hi):
    """Random recursive tree: each newcomer picks a uniform parent among the
    nodes that still have fewer than `max_children` children."""
    eligible = [0]
    fanout = [0] * num_nodes
    edges = []
    for v in range(1, num_nodes):
        slot = rng.below(len(eligible))
        parent = eligible[slot]
        edges.append((parent, v))
        fanout[parent] += 1
        if fanout[parent] >= max_children:
            eligible[slot] = eligible[-1]
            eligible.pop()
        eligible.append(v)
    edges.sort()
    probs = stratified_probs(rng, len(edges), p_lo, p_hi)
    return Model(num_nodes, [(u, v, p) for (u, v), p in zip(edges, probs)])


def cascade_line(rng, model, max_nodes=400):
    """One attributed object simulated on the ground-truth model: a random
    source, independent-cascade spread, the flowed edges recorded."""
    while True:
        src = rng.below(model.num_nodes)
        if model.out[src]:
            break
    active = [src]
    seen = {src}
    flowed = []
    frontier = [src]
    while frontier and len(active) < max_nodes:
        nxt = []
        for u in frontier:
            for v, p in model.out[u]:
                if v not in seen and rng.uniform() < p:
                    seen.add(v)
                    active.append(v)
                    flowed.append("%d>%d" % (u, v))
                    nxt.append(v)
        frontier = nxt
    return "%d|%s|%s" % (src, " ".join(map(str, active)), " ".join(flowed))


def ingest_lines(rng, model, count, tag):
    return [json.dumps({"id": "%s%d" % (tag, i),
                        "ingest": cascade_line(rng, model)},
                       separators=(",", ":")) for i in range(count)]


def dump(obj):
    return json.dumps(obj, separators=(",", ":"))


def mix_small_requests(rng, model, count, tag):
    """60% flow from a 16-node source pool, 10% community (8 sinks), 10%
    joint, 20% conditioned on one high-probability edge. The pool is drawn
    afresh every 128 requests, one source per out-degree sixteenth, so a
    run averages over many pools that each span hubs and leaves alike."""
    n = model.num_nodes
    senders = sorted((len(model.out[u]), u) for u in range(n) if model.out[u])
    strong = [(u, v) for u, v, p in model.edges if p >= 0.25]
    out = []
    for i in range(count):
        if i % 128 == 0:
            pool = [rng.choice(senders[k * len(senders) // 16:
                                       (k + 1) * len(senders) // 16])[1]
                    for k in range(16)]
        rid = "%s%d" % (tag, i)
        r = rng.uniform()
        s = rng.choice(pool)
        if r < 0.6:
            req = {"id": rid, "source": s, "sink": rng.below(n)}
        elif r < 0.7:
            req = {"id": rid, "source": s, "sinks": rng.sample(range(n), 8)}
        elif r < 0.8:
            a, b = rng.sample(pool, 2)
            req = {"id": rid, "flows": "%d>%d %d>%d" % (
                a, rng.below(n), b, rng.below(n))}
        else:
            u, v = rng.choice(strong)
            req = {"id": rid, "source": s, "sink": rng.below(n),
                   "given": "%d>%d" % (u, v)}
        out.append(req)
    return out


def flow_requests(rng, model, count, tag):
    """Distinct random source and sink per request: no shared frontiers."""
    n = model.num_nodes
    senders = [u for u in range(n) if model.out[u]]
    return [{"id": "%s%d" % (tag, i), "source": rng.choice(senders),
             "sink": rng.below(n)} for i in range(count)]


def tree_descendant(rng, model, src):
    v = src
    while model.out[v]:
        v = rng.choice(model.out[v])[0]
        if rng.uniform() < 0.3:
            break
    return v


def subtree_sizes(model):
    size = [1] * model.num_nodes
    for v in range(model.num_nodes - 1, -1, -1):  # children follow parents
        for child, _ in model.out[v]:
            size[v] += size[child]
    return size


def tree_auto_requests(rng, model, count, tag):
    """Unconditional flow and 16-sink community queries from sources whose
    subtree holds 2,000-4,000 nodes, so every answer explores a large
    subtree and the work per request is alike on every seed's tree; sinks
    are drawn inside the source's subtree."""
    size = subtree_sizes(model)
    pool = [v for v in range(model.num_nodes) if 2000 <= size[v] <= 4000]
    out = []
    for i in range(count):
        s = rng.choice(pool)
        rid = "%s%d" % (tag, i)
        if rng.uniform() < 0.5:
            out.append({"id": rid, "source": s,
                        "sink": tree_descendant(rng, model, s)})
        else:
            sinks = sorted({tree_descendant(rng, model, s)
                            for _ in range(16)})
            out.append({"id": rid, "source": s, "sinks": sinks})
    return out


def topk_requests(count, tag):
    """Top-k seed selections over the default universe, k cycling 3..7."""
    return [{"id": "%s%d" % (tag, i), "topk": 3 + i % 5}
            for i in range(count)]


def with_repeats(rng, requests, every):
    """Re-sends one earlier request verbatim after every `every` requests,
    so each run checks that repeated requests answer byte-identically."""
    out = []
    for i, req in enumerate(requests):
        out.append(req)
        if i % every == every - 1:
            out.append(rng.choice(requests[:i + 1]))
    return out

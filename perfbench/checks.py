"""Output checks and counter-derived per-layer metrics for the benchmark."""

import json
import re

# Per-layer metrics and their units: counters scraped from the daemon's
# {"stats":true} (C) and medians from the traced replay (T).
LAYER_UNITS = {
    "protocol.parse_us": "us", "protocol.serialize_us": "us",
    "server.lines_per_batch": "lines", "server.threads_peak": "count",
    "engine.answer_ms": "ms", "engine.batch64_ms": "ms",
    "dispatch.partition_us": "us", "dispatch.analytic_share": "share",
    "plan.self_ms": "ms", "plan.rows_scanned_per_request": "rows",
    "plan.merged_share": "share", "plan.floor_refused_share": "share",
    "diag.sink_us": "us",
    "pool.handoff_us": "us", "pool.tasks_per_request": "count",
    "pool.task_wait_us": "us",
    "reach.strip_us": "us", "reach.ns_per_row": "ns",
    "reach.strip_width": "lanes", "reach.passes_per_request": "count",
    "reach.frontier_words_per_pass": "words",
    "reach.pull_rounds_per_pass": "count",
    "bank.fill_s": "s", "bank.rebuild_s": "s", "bank.strip_plane_ms": "ms",
    "mh.steps_per_row": "count",
    "analytic.feasibility_us": "us", "analytic.reach_us": "us",
    "seedmax.build_ms": "ms", "seedmax.select_ms": "ms",
    "seedmax.builds_per_rebuild": "count",
    "seedmax.postings_per_build": "count",
    "seedmax.prune_hit_share": "share",
    "stream.ingest_us": "us", "stream.publish_ms": "ms",
    "transport.gap_ms": "ms",
}

# Counters a later change renamed or removed: reported, never fatal.
MISSING = []


def strip_batching(resp):
    """`frontier_shared` says how the daemon happened to batch a line; it is
    the only query-answer field that depends on batching."""
    return re.sub(r',?"frontier_shared":(true|false)', "", resp)


def strip_scheduling(resp):
    """Drops the fields that depend on thread timing rather than on the
    inputs: batching, and a top-k answer's generation count (the rebuild
    worker skips epochs a newer one supersedes while ingest outpaces it;
    the answer's model_epoch and content stay exact)."""
    resp = strip_batching(resp)
    if '"kind":"topk"' in resp:
        resp = re.sub(r'"generation":\d+,', "", resp)
    return resp


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.seen = {}

    def fail(self, msg):
        self.failed += 1
        self.messages.append(msg)

    def expect(self, cond, msg):
        if not cond:
            self.fail(msg)

    def answer(self, req, resp):
        """Checks one response line; returns it parsed, or None (counted as
        a failed operation) when it is malformed or wrong."""
        self.attempted += 1
        try:
            ans = json.loads(resp)
        except ValueError:
            self.fail("unparseable line for %s: %.200s" % (req["id"], resp))
            return None
        problem = self.problem(req, ans)
        if problem:
            self.fail("%s: %s: %.300s" % (req["id"], problem, resp))
            return None
        if "ingest" not in req and "topk" not in req:
            line = json.dumps(req, separators=(",", ":"))
            norm = strip_batching(resp)
            if self.seen.setdefault((line, ans.get("generation")),
                                    norm) != norm:
                self.fail("%s: repeated request answered differently"
                          % req["id"])
        return ans

    @staticmethod
    def problem(req, ans):
        if ans.get("id") != req["id"]:
            return "id not echoed"
        if ans.get("ok") is not True:
            return "not ok"
        if "ingest" in req:
            return None if ans.get("ingested") is True else "not ingested"
        if "topk" in req:
            seeds = ans.get("seeds", [])
            nodes = [s.get("node") for s in seeds]
            if len(seeds) != req["topk"] or len(set(nodes)) != len(nodes):
                return "seeds not %d distinct nodes" % req["topk"]
            spread = [s.get("spread", -1) for s in seeds]
            if any(b < a for a, b in zip(spread, spread[1:])):
                return "cumulative spread decreases"
            return None
        est = ans.get("estimates")
        if not est:
            return "no estimates"
        for e in est:
            if not all(k in e for k in ("value", "mcse", "ess", "rhat")):
                return "estimate lacks value/mcse/ess/rhat"
            if not 0.0 <= e["value"] <= 1.0 or e["mcse"] < 0:
                return "estimate out of range"
        return None

    def tree_exact(self, model, reqs, expected):
        """On a tree, Pr[s ~> t] is the product of the edge probabilities on
        the path from s down to t: every analytic estimate must equal it."""
        parent = {v: (u, p) for u, v, p in model.edges}
        for req in reqs:
            ans = json.loads(expected[req["id"]])
            for est in ans.get("estimates", []):
                prob, v = 1.0, est["sink"]
                while v != req["source"] and v in parent:
                    v, p = parent[v]
                    prob *= p
                exact = prob if v == req["source"] else 0.0
                if abs(est["value"] - exact) > 1e-9:
                    self.fail("%s: analytic %r for sink %d, path product %r"
                              % (req["id"], est["value"], est["sink"], exact))
                    break

    def bank_agreement(self, daemon, reqs, expected):
        """Re-asks analytic answers with "backend":"bank" and returns the
        share of estimates farther than 3 x MCSE (floored at one row) from
        the exact analytic value. A calibrated MCSE puts 0.3% there; the
        256-row tree bank's MCSE is overconfident and puts 2-6% there (see
        README.md), so only a gross disagreement, over 20%, fails."""
        total = beyond = 0
        for req in reqs:
            analytic = json.loads(expected[req["id"]])
            if analytic.get("backend") != "analytic":
                self.fail("%s answered by %s on tree-auto"
                          % (req["id"], analytic.get("backend")))
                continue
            bank_req = dict(req, id=req["id"] + "-bank", backend="bank")
            ans = self.answer(bank_req, daemon.call(
                json.dumps(bank_req, separators=(",", ":"))))
            if ans is None:
                continue
            floor = 1.0 / ans["total_rows"]
            for a, b in zip(analytic["estimates"], ans["estimates"]):
                total += 1
                beyond += abs(a["value"] - b["value"]) > 3 * max(b["mcse"],
                                                                 floor)
        share = beyond / total if total else 1.0
        self.expect(share <= 0.2, "bank agreement: %d of %d estimates beyond"
                    " 3 x MCSE" % (beyond, total))
        return share

    def traced_identical(self, script, expected, traced):
        """The traced replay's answers equal the daemon's byte for byte,
        apart from the scheduling fields strip_scheduling drops."""
        answers = iter(traced)
        mismatches = 0
        it = iter(script)
        for entry in it:
            if entry.startswith("L "):
                rid = json.loads(entry[2:])["id"]
                got = next(answers, None)
                mismatches += (got is None or strip_scheduling(got) !=
                               strip_scheduling(expected[rid]))
            else:
                for _ in range(int(entry[2:])):
                    rid = json.loads(next(it))["id"]
                    got = next(answers, None)
                    mismatches += (got is None or
                                   strip_batching(got) != expected[rid])
        self.attempted += 1
        self.expect(mismatches == 0,
                    "traced replay: %d answers differ from the daemon's"
                    % mismatches)


def _counter(stats, name):
    counters = stats.get("counters", {})
    if name not in counters:
        if name not in MISSING:
            MISSING.append(name)
        return 0.0
    return float(counters[name])


def _ratio(num, den):
    return num / den if den else 0.0


def counter_metrics(boot, s0, s1):
    """Per-layer counts over the measured phases, as deltas between the two
    {"stats":true} scrapes around them; MH steps per row from the scrape
    right after set-up."""
    d = lambda name: _counter(s1, name) - _counter(s0, name)  # noqa: E731
    answered = (d("serve.query.backend_total.bank") +
                d("serve.query.backend_total.analytic"))
    bank_requests = d("serve.query.requests_total")
    passes = sum(d("reach.batch_blocks" + w)
                 for w in ("", ".64", ".256", ".512"))
    wait = s1.get("histograms", {}).get("threadpool.task_wait_ns")
    wait0 = s0.get("histograms", {}).get("threadpool.task_wait_ns")
    if wait is None or wait0 is None:
        MISSING.append("threadpool.task_wait_ns")
        wait_us = 0.0
    else:
        wait_us = _ratio(wait["sum"] - wait0["sum"],
                         wait["total"] - wait0["total"]) / 1e3
    gauges = s1.get("gauges", {})
    if "reach.strip_width" not in gauges:
        MISSING.append("reach.strip_width")
    builds = d("seedmax.sketch.builds_total")
    return {
        "server.lines_per_batch": _ratio(d("serve.server.lines_total"),
                                         d("serve.server.batches_total")),
        "dispatch.analytic_share": _ratio(
            d("serve.query.backend_total.analytic"), answered),
        "plan.rows_scanned_per_request": _ratio(
            d("serve.query.rows_scanned_total"), bank_requests),
        "plan.merged_share": _ratio(d("serve.query.frontier_merged_total"),
                                    bank_requests),
        "plan.floor_refused_share": _ratio(
            d("serve.query.conditional_floor_total"), bank_requests),
        "pool.tasks_per_request": _ratio(d("threadpool.tasks"), answered),
        "pool.task_wait_us": wait_us,
        "reach.strip_width": float(gauges.get("reach.strip_width", 0)),
        "reach.passes_per_request": _ratio(passes, bank_requests),
        "reach.frontier_words_per_pass": _ratio(d("reach.frontier_words"),
                                                passes),
        "reach.pull_rounds_per_pass": _ratio(d("reach.pull_rounds"), passes),
        "mh.steps_per_row": _ratio(
            _counter(boot, "mh.steps.burnin") +
            _counter(boot, "mh.steps.retained"),
            float(boot.get("gauges", {}).get("serve.bank.rows", 0))),
        "seedmax.builds_per_rebuild": _ratio(
            builds, d("serve.bank.rebuilds_total")),
        "seedmax.postings_per_build": _ratio(
            d("seedmax.sketch.postings_total"), builds),
        "seedmax.prune_hit_share": _ratio(d("seedmax.select.prune_hits_total"),
                                          d("seedmax.select.evaluations_total")),
    }

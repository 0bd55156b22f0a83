"""Aggregation of one benchmark run: percentiles, failure accounting, span
self times and the per-layer table.

The load generator (driver/) writes a results file of raw samples, values,
output checks and spans; everything statistical happens here so that it is
tested in one place (test_aggregate.py).
"""

import math

# End-to-end metrics: name -> (unit, better, how it is computed).
END_TO_END = [
    ("setup_s", "s", "lower", ("median", "setup_s")),
    ("completed_op_share", "share", "higher", ("completed",)),
    ("ops_s", "1/s", "higher", ("value", "ops_s")),
    ("read_us_p50", "us", "lower", ("pct", "read_us", 50)),
    ("read_us_p99", "us", "lower", ("pct", "read_us", 99)),
    ("write_us_p50", "us", "lower", ("pct", "write_us", 50)),
    ("write_us_p90", "us", "lower", ("pct", "write_us", 90)),
    ("ingest_mb_s", "MB/s", "higher", ("median", "ingest_mb_s")),
    ("version_ms_p50", "ms", "lower", ("pct", "version_ms", 50)),
    ("version_ms_p90", "ms", "lower", ("pct", "version_ms", 90)),
    ("diff_ms_p50", "ms", "lower", ("pct", "diff_ms", 50)),
    ("push_ms_p50", "ms", "lower", ("pct", "push_ms", 50)),
    ("push_ms_p90", "ms", "lower", ("pct", "push_ms", 90)),
    ("clone_mb_s", "MB/s", "higher", ("median", "clone_mb_s")),
    ("storage_bytes_per_user_byte", "ratio", "lower",
     ("value", "storage_bytes_per_user_byte")),
]

LAYERS = ["util", "types", "postree", "chunk", "store", "net"]

# Per-layer metrics of the traced run: name -> unit. Each comes from the
# driver as a value or as samples (reported as their median), or is derived
# below (layer.*, trace.*, net.overhead_us.*, the save share).
PER_LAYER = [
    ("util.csv.parse_ms", "ms"),
    ("util.sha256.ms", "ms"),
    ("util.sha256.bytes", "bytes"),
    ("postree.split.ms", "ms"),
    ("postree.split.bytes", "bytes"),
    ("types.table.build_ms", "ms"),
    ("ingest.unaccounted_share", "share"),
    ("postree.update.bytes_rebuilt", "bytes"),
    ("postree.update.chunks_put", "count"),
    ("postree.lookup.chunk_gets", "count"),
    ("postree.diff.ms", "ms"),
    ("postree.diff.nodes_loaded", "count"),
    ("chunk.put.calls", "count"),
    ("chunk.put.ms", "ms"),
    ("chunk.put.bytes", "bytes"),
    ("chunk.dedup_hit_ratio", "share"),
    ("chunk.get.calls", "count"),
    ("chunk.get.ms", "ms"),
    ("chunk.cache.hit_ratio", "share"),
    ("chunk.cache.evictions", "count"),
    ("chunk.physical_bytes", "bytes"),
    ("store.head_resolve_us", "us"),
    ("store.commit_us", "us"),
    ("store.branch_table.save_us", "us"),
    ("store.branch_table.heads", "count"),
    ("store.branch_table.save_share_of_write", "share"),
    ("store.cas_conflict_share", "share"),
    ("store.bundle.export_ms", "ms"),
    ("store.bundle.import_ms", "ms"),
    ("net.overhead_us.get", "us"),
    ("net.overhead_us.put", "us"),
    ("net.overhead_us.commit", "us"),
    ("net.frame.encode_ns", "ns"),
    ("net.frame.parse_ns", "ns"),
    ("net.server.requests_served", "count"),
    ("net.server.requests_shed", "count"),
    ("net.server.protocol_errors", "count"),
    ("net.sync.rounds", "count"),
    ("net.sync.chunks_offered", "count"),
    ("net.sync.chunks_sent", "count"),
    ("net.sync.bytes_sent", "bytes"),
    ("net.sync.offer_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.peak_rss_mb", "MB"),
    ("proc.server_cpu_s", "s"),
    ("proc.server_peak_rss_mb", "MB"),
] + [("layer.%s.self_ms" % l, "ms") for l in LAYERS] + [
    ("layer.%s.share" % l, "share") for l in LAYERS
] + [
    ("layer.residual_share", "share"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
]


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between the
    closest ranks (the "type 7" definition numpy uses by default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def tail_percentile(n, ladder=(50, 90, 99, 99.9)):
    """The highest percentile of `ladder` with at least ten of `n` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in ladder:
        if n * (100 - p) / 100.0 >= 10 - 1e-9:
            best = p
    return best


def completed_share(attempted, failed):
    """Completed over attempted operations. `failed` counts failed or
    refused operations only: a lost compare-and-set is a correct outcome
    and the driver never counts it as failed."""
    if attempted < 1:
        raise ValueError("no operation attempted")
    return (attempted - failed) / attempted


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children counted once, children
    clipped to the parent). `spans` are (id, parent, name, start, end)."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for sid, _parent, _name, start, end in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(sid, []), key=lambda c: c[3]):
            cs, ce = max(c[3], start), min(c[4], end)
            if ce <= cs:
                continue
            if cur_end is None or cs > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = cs, ce
            else:
                cur_end = max(cur_end, ce)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sid] = (end - start) - covered
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def layer_table(spans):
    """Per-layer self time under the op.* root spans (one root per
    operation the workload times end to end). Returns (total_ns,
    {layer: self_ns}, residual_ns): the residual is the roots' own self
    time, the part of the end-to-end time no layer span covers."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    root_of = {}

    def find_root(sid):
        chain = []
        while sid in by_id and sid not in root_of:
            chain.append(sid)
            parent = by_id[sid][1]
            if parent not in by_id:
                root_of[sid] = sid
                break
            sid = parent
        root = root_of.get(sid, sid)
        for c in chain:
            root_of[c] = root
        return root

    total = 0
    residual = 0
    layers = {l: 0 for l in LAYERS}
    for s in spans:
        root = by_id.get(find_root(s[0]))
        if root is None or layer_of(root[2]) != "op":
            continue
        if s[0] == root[0]:
            total += s[4] - s[3]
            residual += selfs[s[0]]
        else:
            layers.setdefault(layer_of(s[2]), 0)
            layers[layer_of(s[2])] += selfs[s[0]]
    return total, layers, residual


def parse_results(text):
    res = {"ctx": {}, "attempted": 0, "failed": 0, "checks": [],
           "values": {}, "samples": {}, "spans": []}
    for line in text.splitlines():
        parts = line.split(" ")
        kind = parts[0]
        if kind == "ctx":
            res["ctx"][parts[1]] = " ".join(parts[2:])
        elif kind in ("attempted", "failed"):
            res[kind] = int(parts[1])
        elif kind == "check":
            res["checks"].append((parts[1], parts[2] == "ok",
                                  " ".join(parts[3:])))
        elif kind == "value":
            res["values"][parts[1]] = float(parts[2])
        elif kind == "samples":
            res["samples"][parts[1]] = [float(x) for x in parts[2:]]
        elif kind == "span":
            res["spans"].append((int(parts[1]), int(parts[2]), parts[3],
                                 int(parts[4]), int(parts[5])))
    return res


def end_to_end(res):
    """{name: (value, unit)} for every end-to-end metric. A metric whose
    operations all failed has no samples: its value is None."""
    out = {}
    for name, unit, _better, how in END_TO_END:
        v = None
        if how[0] == "completed":
            v = completed_share(res["attempted"], res["failed"])
        elif how[0] == "value":
            v = res["values"].get(how[1])
        elif res["samples"].get(how[1]):
            xs = res["samples"][how[1]]
            v = median(xs) if how[0] == "median" else percentile(xs, how[2])
        out[name] = (v, unit)
    return out


def _scalar(res, name):
    if name in res["values"]:
        return res["values"][name]
    if res["samples"].get(name):
        return median(res["samples"][name])
    return 0.0


def per_layer(res):
    """{name: (value, unit)} for every per-layer metric. A layer the
    workload does not use reads 0."""
    samples = res["samples"]
    derived = {}
    total, layers, residual = layer_table(res["spans"])
    for l in LAYERS:
        derived["layer.%s.self_ms" % l] = layers.get(l, 0) / 1e6
        derived["layer.%s.share" % l] = layers.get(l, 0) / total if total else 0
    derived["layer.residual_share"] = residual / total if total else 0
    derived["trace.spans"] = len(res["spans"])
    if samples.get("trace.traced_op") and samples.get("trace.untraced_op"):
        derived["trace.overhead_share"] = (
            median(samples["trace.traced_op"]) /
            median(samples["trace.untraced_op"]) - 1)
    for verb, rtt in (("get", "read_us"), ("put", "kv.put_us"),
                      ("commit", "kv.commit_us")):
        server = res["values"].get("replay.%s_us" % verb)
        if server is not None and samples.get(rtt):
            derived["net.overhead_us." + verb] = median(samples[rtt]) - server
    if samples.get("store.branch_table.save_us") and samples.get("write_us"):
        derived["store.branch_table.save_share_of_write"] = (
            median(samples["store.branch_table.save_us"]) /
            median(samples["write_us"]))
    out = {}
    for name, unit in PER_LAYER:
        v = derived[name] if name in derived else _scalar(res, name)
        out[name] = (v, unit)
    return out

#!/usr/bin/env bash
# Smoke test of the tracing subsystem (docs/OBSERVABILITY.md): run
# the Fig. 1 bench for a handful of frames with --trace and
# --frames-csv on, validate that the trace is well-formed — the JSON
# loads, every span begin pairs with an end, the main kernels ran —
# and reconcile the two outputs: kernel spans aggregated per
# (frame, kernel) and grouped into the four pipeline phases cover the
# same frames as frames.csv, and each phase's run total matches the
# sum of its `*_ms` column within 5%.
#
# Usage: trace_smoke.sh <path-to-bench_fig1_pipeline>
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 <path-to-bench_fig1_pipeline>" >&2
    exit 2
fi
bin=$(readlink -f "$1")

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"$bin" --frames 6 --trace trace.json --frames-csv frames.csv \
    > run.log 2>&1 || {
    echo "trace_smoke: bench failed:" >&2
    cat run.log >&2
    exit 1
}

[ -s trace.json ] || { echo "trace_smoke: empty trace.json" >&2; exit 1; }
[ -s frames.csv ] || { echo "trace_smoke: empty frames.csv" >&2; exit 1; }

if command -v python3 >/dev/null 2>&1; then
    python3 - <<'EOF'
import collections
import csv
import json

doc = json.load(open("trace.json"))
events = doc["traceEvents"]
assert events, "no trace events"

begins = collections.Counter()
ends = collections.Counter()
for event in events:
    key = (event["tid"], event["name"])
    if event["ph"] == "B":
        begins[key] += 1
    elif event["ph"] == "E":
        ends[key] += 1
assert begins == ends, "unpaired span begin/end events"

kernels = {e["name"] for e in events if e.get("cat") == "kernel"}
for required in ("mm2meters", "bilateral_filter", "track",
                 "integrate", "raycast"):
    assert required in kernels, f"missing kernel span: {required}"

# Per-(frame, kernel) host ms: spans nest per thread, and a span
# belongs to the frame it began in (docs/OBSERVABILITY.md).
per_frame_kernel = collections.Counter()
stacks = collections.defaultdict(list)
for event in events:
    if event["ph"] == "B":
        stacks[event["tid"]].append(event)
    elif event["ph"] == "E":
        begin = stacks[event["tid"]].pop()
        if begin["cat"] == "kernel":
            key = (begin["args"]["frame"], begin["name"])
            per_frame_kernel[key] += (event["ts"] - begin["ts"]) / 1e3

# The frames-CSV phase partition of the kernels.
phases = {
    "preprocess_ms": ("mm2meters", "bilateral_filter", "half_sample",
                      "depth2vertex", "vertex2normal"),
    "track_ms": ("track", "reduce", "solve"),
    "integrate_ms": ("integrate",),
    "raycast_ms": ("raycast", "render_volume"),
}
traced = collections.Counter()
for (frame, kernel), ms in per_frame_kernel.items():
    phase = [p for p, names in phases.items() if kernel in names]
    assert len(phase) == 1, f"kernel {kernel} in no single phase"
    traced[phase[0]] += ms

rows = list(csv.DictReader(open("frames.csv")))
assert rows, "frames.csv has no data rows"
csv_frames = sorted(int(row["frame"]) for row in rows)
trace_frames = sorted({frame for frame, _ in per_frame_kernel})
assert csv_frames == list(range(len(rows))), \
    f"frames.csv frames not 0..N-1: {csv_frames}"
assert trace_frames == csv_frames, \
    f"trace frames {trace_frames} != frames.csv frames {csv_frames}"

for phase in phases:
    logged = sum(float(row[phase]) for row in rows)
    assert abs(traced[phase] - logged) <= 0.05 * logged, (
        f"{phase}: traced {traced[phase]:.3f} ms vs frames.csv "
        f"{logged:.3f} ms (over 5%)")
print(f"trace_smoke: ok ({len(events)} events, {len(rows)} frames, "
      + ", ".join(f"{p} {traced[p]:.1f}" for p in phases) + ")")
EOF
else
    # Fallback check without python3: paired B/E counts and header.
    b=$(grep -o '"ph":"B"' trace.json | wc -l)
    e=$(grep -o '"ph":"E"' trace.json | wc -l)
    if [ "$b" -eq 0 ] || [ "$b" -ne "$e" ]; then
        echo "trace_smoke: unpaired events (B=$b E=$e)" >&2
        exit 1
    fi
    head -1 frames.csv | grep -q '^label,frame,wall_ms,' || {
        echo "trace_smoke: bad frames.csv header" >&2
        exit 1
    }
    echo "trace_smoke: ok (B=$b spans)"
fi

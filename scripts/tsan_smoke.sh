#!/usr/bin/env bash
# Race gate for the concurrency layer: re-run the thread-pool, metrics
# -registry, parallel-DSE, pooled-kernel-parity, sparse-sampler
# parity, render-reuse, free-brick elision, sparse-volume, telemetry,
# request-trace-propagation, and dataset-renderer test groups under
# ThreadSanitizer. Only registered by CMake when the tree
# was configured with SLAMBENCH_SANITIZE=thread, so the binaries passed
# in are already TSan-instrumented; any reported race aborts the test.
#
# Usage: tsan_smoke.sh <support_test> <metrics_test> \
#            <hypermapper_test> <kfusion_parity_test> \
#            <kfusion_sparse_test> <telemetry_test> <trace_test> \
#            <dataset_test>
set -eu

if [ $# -ne 8 ]; then
    echo "usage: $0 <support_test> <metrics_test>" \
         "<hypermapper_test> <kfusion_parity_test>" \
         "<kfusion_sparse_test> <telemetry_test> <trace_test>" \
         "<dataset_test>" >&2
    exit 2
fi
support_test=$(readlink -f "$1")
metrics_test=$(readlink -f "$2")
hypermapper_test=$(readlink -f "$3")
parity_test=$(readlink -f "$4")
sparse_test=$(readlink -f "$5")
telemetry_test=$(readlink -f "$6")
trace_test=$(readlink -f "$7")
dataset_test=$(readlink -f "$8")

# halt_on_error: the first race fails the run instead of just logging.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

run() {
    local bin="$1" filter="$2"
    echo "tsan_smoke: $(basename "$bin") --gtest_filter=$filter"
    "$bin" --gtest_filter="$filter" --gtest_brief=1 || {
        echo "tsan_smoke: FAILED under TSan: $(basename "$bin") ($filter)" >&2
        exit 1
    }
}

run "$support_test" 'ThreadPool.*'
run "$metrics_test" 'MetricsRegistry.*'
run "$hypermapper_test" '*ParallelMatchesSerial*'
# Pooled kernels, the sparse sampler (B = 8 and 16) against dense,
# the pipeline's render reuse of its raycast, and the dense march's
# free-brick elision (flags set by pooled integrate workers).
run "$parity_test" '*Pooled*:SparseFusedVolume.*:RenderReuse.*:FreeBrick.*'
# Concurrent block allocation / streaming against the hashed pool.
run "$sparse_test" '*Pooled*'
# The seqlock ring, the exposition server against concurrent metric
# writers, and the watchdog; the fork-based CrashDump suite is
# excluded (fork is not meaningful under TSan's runtime).
run "$telemetry_test" 'FlightRecorder.*:TelemetryServer.*:SloWatchdog.*:LiveTelemetry.*'
# Request-trace context propagation across pool task boundaries:
# nested submits, concurrent multi-tenant traces, span-store writers.
run "$trace_test" 'RequestTraceTest.*'
# Row-parallel renderer on the shared pool: bit-exact digests, and
# generateSequence from concurrent threads and from inside a pool task.
run "$dataset_test" 'Generator.*:Renderer*'

echo "tsan_smoke: ok"

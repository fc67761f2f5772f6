#ifndef SLAMBENCH_SUPPORT_TRACE_HPP
#define SLAMBENCH_SUPPORT_TRACE_HPP

/**
 * @file
 * Lightweight per-kernel tracing: scoped spans, counter events, and
 * frame markers, exported as Chrome `chrome://tracing` JSON.
 *
 * SLAMBench's whole methodology is timing every pipeline stage; this
 * is the host-side instrumentation that makes those timings visible.
 * Span names for compute kernels are exactly the
 * `kfusion::kernelName()` strings, so a timeline opened in
 * chrome://tracing (or Perfetto) lines up 1:1 with the
 * `work_counters` CSV columns. See docs/OBSERVABILITY.md for the
 * span semantics and the export schemas.
 *
 * Cost model: when `SLAMBENCH_TRACE_ENABLED` is defined to 0 the
 * TRACE_* macros compile to nothing. When compiled in but not
 * runtime-enabled (the default), every entry point is a single
 * relaxed atomic load — no allocation, no event, no lock. When
 * enabled, events append to per-thread buffers without locking; the
 * registry lock is only taken once per thread (first event) and at
 * export time.
 */

#ifndef SLAMBENCH_TRACE_ENABLED
#define SLAMBENCH_TRACE_ENABLED 1
#endif

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace slambench::support::trace {

/** What a trace event describes; exported as the Chrome `cat` field. */
enum class Category : uint8_t {
    Kernel,  ///< A pipeline compute kernel (names match kernelName()).
    Phase,   ///< A coarser grouping span (frame, preprocess, ...).
    Worker,  ///< A thread-pool chunk executing on behalf of a span.
    Counter, ///< A named scalar sample (counter event).
    Marker,  ///< An instant event (frame boundaries).
};

/** @return the stable lowercase name of @p cat for exports. */
const char *categoryName(Category cat);

/** One recorded trace event (span begin/end, counter, or marker). */
struct Event
{
    /** Static string; spans use it to pair begins with ends. */
    const char *name = nullptr;
    /** Nanoseconds since the tracer epoch (start / last clear()). */
    uint64_t tsNs = 0;
    /** Pipeline frame index current when the event was recorded. */
    uint64_t frame = 0;
    /** Counter value; unused for spans and markers. */
    double value = 0.0;
    /** Event category. */
    Category cat = Category::Phase;
    /** Chrome phase: 'B' begin, 'E' end, 'C' counter, 'i' instant. */
    char phase = 'B';
};

/** Aggregate of all spans with one name within one frame. */
struct FrameKernelTotal
{
    uint64_t frame = 0;     ///< Frame index the spans began in.
    std::string name;       ///< Span (kernel) name.
    size_t spans = 0;       ///< Number of completed spans.
    double seconds = 0.0;   ///< Summed span wall time.
};

/** Aggregate of all spans with one name across the whole trace. */
struct KernelTotal
{
    std::string name;       ///< Span (kernel) name.
    size_t spans = 0;       ///< Number of completed spans.
    double seconds = 0.0;   ///< Summed span wall time.
};

/**
 * Process-wide trace recorder.
 *
 * Threads record into private buffers (no contention on the hot
 * path); buffers are owned by the tracer and outlive their threads,
 * so worker events survive pool destruction until export.
 */
class Tracer
{
  public:
    /** @return the process-wide tracer. */
    static Tracer &instance();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Turn recording on or off. Must not race in-flight spans:
     * enable before the measured region, disable after.
     */
    void setEnabled(bool on);

    /** @return whether events are being recorded (relaxed load). */
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Drop all recorded events and restart the time epoch. */
    void clear();

    /**
     * Record a frame-boundary marker and stamp subsequent events
     * (on every thread) with @p frame.
     */
    void setFrame(uint64_t frame);

    /** @return the frame index currently stamped onto events. */
    uint64_t
    frame() const
    {
        return frame_.load(std::memory_order_relaxed);
    }

    /** Record a span begin; callers must check enabled() first. */
    void beginSpan(const char *name, Category cat);
    /** Record the matching span end. */
    void endSpan(const char *name, Category cat);
    /** Record a counter sample; callers must check enabled() first. */
    void counter(const char *name, double value);

    /** @return total events recorded since the last clear(). */
    size_t eventCount() const;
    /** @return number of threads that have recorded any event. */
    size_t threadCount() const;
    /** @return per-thread event sequences (registration order). */
    std::vector<std::vector<Event>> eventsByThread() const;

    /**
     * Sum completed Category::Kernel spans per (frame, name).
     * Begin/end pairing is per thread (spans are RAII and nest).
     *
     * @return totals sorted by frame then name.
     */
    std::vector<FrameKernelTotal> frameKernelTotals() const;

    /** @return Category::Kernel span totals per name, name-sorted. */
    std::vector<KernelTotal> kernelTotals() const;

    /** Write the Chrome trace-event JSON document to @p os. */
    void writeChromeJson(std::ostream &os) const;
    /**
     * Write the Chrome trace-event JSON to @p path.
     * @return false when the file cannot be opened.
     */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct ThreadBuffer
    {
        uint32_t tid = 0;
        std::vector<Event> events;
    };

    Tracer();

    /** @return this thread's buffer, registering it on first use. */
    ThreadBuffer &localBuffer();
    void record(const char *name, Category cat, char phase,
                double value);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> frame_{0};
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * @return the name of the innermost open span on this thread, or
 * nullptr outside any span. The thread pool uses this to attribute
 * worker-side chunks to the kernel that dispatched them. Maintained
 * by ScopedSpan whenever tracing is enabled.
 */
const char *currentSpanName();

namespace detail {
/** Push onto this thread's current-span stack (ScopedSpan only). */
void pushCurrentSpan(const char *name);
/** Pop this thread's current-span stack (ScopedSpan only). */
void popCurrentSpan();
} // namespace detail

// --- Request tracing ---------------------------------------------
//
// Per-request (tenant frame) span trees with tail-based retention,
// layered on the same ScopedSpan instrumentation as the Chrome
// timeline above. A TraceContext is created per (tenant, frame) by
// the serve scheduler (or the bench frame loop), carried across
// ThreadPool task boundaries by the pool itself, and installed on the
// executing thread — so every ScopedSpan that opens while the context
// is active records a child span into the trace automatically.
// Completed traces are retained with probability
// RequestTraceOptions::sampleRate, but frames that breach an SLO,
// lose tracking, or land in the top bucket of their latency histogram
// are always retained (the pathological tail is captured by
// construction). See docs/OBSERVABILITY.md "Request tracing".

/**
 * Identity of one in-flight request on one thread: the trace it
 * belongs to plus the innermost open request span (the parent of any
 * span opened next). Copied by value across task boundaries.
 */
struct TraceContext
{
    /** Nonzero id of the trace, 0 = no active trace. */
    uint64_t traceId = 0;
    /** Innermost open request-span id (parent for new spans). */
    uint64_t spanId = 0;

    /** @return whether this context names a live trace. */
    bool active() const { return traceId != 0; }
};

/** One completed span within a retained request trace. */
struct RequestSpan
{
    uint64_t spanId = 0;       ///< Unique within the process.
    uint64_t parentSpanId = 0; ///< 0 = child of the trace root.
    /** Static span name (same strings as the Chrome timeline). */
    const char *name = nullptr;
    Category cat = Category::Phase;
    uint64_t startNs = 0; ///< metrics::now_ns() at open.
    uint64_t endNs = 0;   ///< metrics::now_ns() at close.
};

/** Why a completed trace was (or would be) retained. */
struct RetentionFlags
{
    bool sloBreach = false;    ///< Frame breached an SLO threshold.
    bool trackingLost = false; ///< Pose was rejected this frame.
    bool topBucket = false;    ///< Landed in the top populated
                               ///< latency-histogram bucket.
    bool sampled = false;      ///< Kept by the probabilistic sampler.

    /** @return whether any always-retain flag is set. */
    bool
    flagged() const
    {
        return sloBreach || trackingLost || topBucket;
    }
};

/** One retained (completed) request trace. */
struct RetainedTrace
{
    uint64_t traceId = 0;
    uint64_t rootSpanId = 0; ///< Synthesized root covering the trace.
    std::string tenant;      ///< Tenant id ("" outside serve).
    uint64_t frame = 0;      ///< Tenant-local frame index.
    uint64_t startNs = 0;    ///< Trace begin (metrics::now_ns()).
    uint64_t endNs = 0;      ///< Trace finish.
    double durationSeconds = 0.0; ///< Frame wall time (reported).
    RetentionFlags retention;
    /** Completed spans, in completion order (children close before
     *  parents; the root span is last). */
    std::vector<RequestSpan> spans;
    /** Spans discarded once maxSpansPerTrace was reached. */
    uint64_t spansDropped = 0;
};

/** Tuning of the request tracer. */
struct RequestTraceOptions
{
    /** Probability an unflagged completed trace is retained. */
    double sampleRate = 0.01;
    /** Retained traces kept (FIFO eviction beyond this). */
    size_t maxRetained = 256;
    /** Spans recorded per trace (further spans are counted only). */
    size_t maxSpansPerTrace = 512;
    /** In-flight traces tracked (oldest evicted beyond this). */
    size_t maxInflight = 1024;
};

/** Completion report for one request trace. */
struct RequestTraceFinish
{
    /** Frame wall time, seconds (reported; the span tree's root
     *  duration is measured independently). */
    double durationSeconds = 0.0;
    /** Always-retain flags (sampled is decided by the tracer). */
    bool sloBreach = false;
    bool trackingLost = false;
    bool topBucket = false;
    /** Registry histogram name this frame was recorded into; a
     *  retained trace becomes that histogram's exemplar ("" = no
     *  exemplar). */
    std::string exemplarMetric;
};

/** Exemplar: the retained trace behind one histogram's samples. */
struct TraceExemplar
{
    uint64_t traceId = 0;
    double value = 0.0; ///< The recorded sample (seconds).
    uint64_t ns = 0;    ///< When the exemplar was updated.
};

namespace detail {
/** Master gate for request tracing (relaxed; see armed()). */
extern std::atomic<bool> g_request_tracing;

/**
 * Open a request span on this thread if a context is active.
 * @return whether a span was opened (ids/start filled in).
 */
bool beginRequestSpan(uint64_t *span_id, uint64_t *parent_id,
                      uint64_t *start_ns);
/** Close the span opened by beginRequestSpan on this thread. */
void endRequestSpan(const char *name, Category cat, uint64_t span_id,
                    uint64_t parent_id, uint64_t start_ns);
} // namespace detail

/** @return whether request tracing is armed (single relaxed load). */
inline bool
requestTracingArmed()
{
    return detail::g_request_tracing.load(std::memory_order_relaxed);
}

/** @return the thread's active request context (inactive outside
 *  any installed context). */
TraceContext currentTraceContext();

/**
 * Process-wide request-trace store: in-flight traces accumulate
 * spans; finish() applies the tail-based retention policy and moves
 * keepers into a bounded FIFO of retained traces, queryable by the
 * /tracez endpoint. All methods are thread-safe; when disarmed,
 * begin() returns an inactive context and span recording is gated
 * off by requestTracingArmed().
 */
class RequestTracer
{
  public:
    /** @return the process-wide request tracer. */
    static RequestTracer &instance();

    RequestTracer(const RequestTracer &) = delete;
    RequestTracer &operator=(const RequestTracer &) = delete;

    /** Arm with @p options, dropping all previous state. */
    void configure(const RequestTraceOptions &options);

    /** Disarm; retained traces stay queryable until clear(). */
    void disarm();

    /** Drop every in-flight and retained trace and all exemplars. */
    void clear();

    /** @return whether begin()/span recording are armed. */
    bool enabled() const { return requestTracingArmed(); }

    /** @return the active options (last configure()). */
    RequestTraceOptions options() const;

    /**
     * Start a trace for one (tenant, frame) request.
     *
     * @return the context to install around the request's work, or
     * an inactive context when disarmed (all downstream recording
     * then gates off).
     */
    TraceContext begin(const std::string &tenant, uint64_t frame);

    /**
     * Complete the trace named by @p ctx: decide retention (always
     * when an always-retain flag is set in @p finish, else with
     * probability sampleRate), synthesize the root span, and — when
     * retained and finish.exemplarMetric is set — publish the trace
     * as that histogram's exemplar.
     */
    void finish(const TraceContext &ctx,
                const RequestTraceFinish &finish);

    /** Append one completed span to an in-flight trace (no-op when
     *  the trace already finished or was evicted). */
    void addSpan(uint64_t trace_id, const RequestSpan &span);

    /** @return a fresh process-unique span id. */
    uint64_t
    nextSpanId()
    {
        return nextSpanId_.fetch_add(1, std::memory_order_relaxed) +
               1;
    }

    /** @return traces started / retained since the last clear(). */
    uint64_t tracesStarted() const;
    uint64_t tracesRetained() const;

    /** @return retained traces, newest first. */
    std::vector<RetainedTrace> retainedSnapshot() const;

    /** Copy the retained trace @p trace_id into @p out.
     *  @return whether it was found. */
    bool findTrace(uint64_t trace_id, RetainedTrace *out) const;

    /** Copy the exemplar of histogram @p metric into @p out.
     *  @return whether one exists. */
    bool exemplarFor(const std::string &metric,
                     TraceExemplar *out) const;

  private:
    RequestTracer() = default;

    mutable std::mutex mutex_;
    RequestTraceOptions options_;
    /** In-flight traces by id, with FIFO eviction order. */
    std::unordered_map<uint64_t, RetainedTrace> inflight_;
    std::deque<uint64_t> inflightOrder_;
    /** Retained traces, oldest first (FIFO eviction). */
    std::deque<RetainedTrace> retained_;
    /** Exemplars by registry histogram name. */
    std::unordered_map<std::string, TraceExemplar> exemplars_;
    uint64_t tracesStarted_ = 0;
    uint64_t tracesRetained_ = 0;
    uint64_t idSeed_ = 0;
    std::atomic<uint64_t> nextTraceSeq_{0};
    std::atomic<uint64_t> nextSpanId_{0};
};

/**
 * RAII installation of a request context on the current thread:
 * ScopedSpans opened in scope record into the context's trace, and
 * log records carry `trace_id=...` correlation. Restores the
 * previous context (and log correlation id) on destruction. An
 * inactive context installs nothing.
 */
class ScopedTraceContext
{
  public:
    explicit ScopedTraceContext(const TraceContext &ctx);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext &) = delete;
    ScopedTraceContext &operator=(const ScopedTraceContext &) =
        delete;

  private:
    TraceContext prev_;
    bool installed_ = false;
};

/** @return @p trace_id as the 16-hex-digit form used by /tracez,
 *  exemplars, and log correlation. */
std::string formatTraceId(uint64_t trace_id);

/** Parse the formatTraceId() form (with or without leading 0x).
 *  @return 0 on malformed input. */
uint64_t parseTraceId(const std::string &text);

/**
 * RAII arming of the request tracer for one run (the `--trace-*`
 * flag family). Disarms on destruction;
 * inactive when constructed with @p armed false.
 */
class RequestTraceSession
{
  public:
    RequestTraceSession() = default;
    RequestTraceSession(bool armed,
                        const RequestTraceOptions &options);
    ~RequestTraceSession();

    RequestTraceSession(RequestTraceSession &&other) noexcept;
    RequestTraceSession &
    operator=(RequestTraceSession &&other) noexcept;
    RequestTraceSession(const RequestTraceSession &) = delete;
    RequestTraceSession &
    operator=(const RequestTraceSession &) = delete;

    /** @return whether this session armed the tracer. */
    bool active() const { return armed_; }

  private:
    bool armed_ = false;
};

/**
 * RAII span: records a begin event on construction and the matching
 * end on destruction, and a request span while a request context is
 * installed. Two relaxed loads when both are disabled.
 */
class ScopedSpan
{
  public:
    /**
     * @param name Static string naming the span (must outlive the
     *     tracer; string literals and kernelName() qualify).
     * @param cat Category exported as the Chrome `cat` field.
     */
    explicit ScopedSpan(const char *name,
                        Category cat = Category::Phase)
    {
        Tracer &tracer = Tracer::instance();
        const bool traced = tracer.enabled();
        // Request tracing records spans only while a context is
        // installed on this thread (beginRequestSpan checks).
        const bool request =
            requestTracingArmed() &&
            detail::beginRequestSpan(&reqSpanId_, &reqParentId_,
                                     &reqStartNs_);
        if (!traced && !request)
            return;
        name_ = name;
        cat_ = cat;
        traced_ = traced;
        requestActive_ = request;
        if (traced) {
            detail::pushCurrentSpan(name);
            tracer.beginSpan(name, cat);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (!name_)
            return;
        if (traced_) {
            Tracer::instance().endSpan(name_, cat_);
            detail::popCurrentSpan();
        }
        if (requestActive_)
            detail::endRequestSpan(name_, cat_, reqSpanId_,
                                   reqParentId_, reqStartNs_);
    }

  private:
    const char *name_ = nullptr;
    Category cat_ = Category::Phase;
    bool traced_ = false;
    bool requestActive_ = false;
    uint64_t reqSpanId_ = 0;
    uint64_t reqParentId_ = 0;
    uint64_t reqStartNs_ = 0;
};

/** Record a counter sample if tracing is enabled. */
inline void
counterEvent(const char *name, double value)
{
    Tracer &tracer = Tracer::instance();
    if (tracer.enabled())
        tracer.counter(name, value);
}

/** Record a frame boundary if tracing is enabled. */
inline void
frameMarker(uint64_t frame)
{
    Tracer &tracer = Tracer::instance();
    if (tracer.enabled())
        tracer.setFrame(frame);
}

/**
 * RAII trace capture for a CLI run: enables the tracer on
 * construction when the output path is non-empty, and on destruction
 * exports the Chrome trace and disables tracing.
 */
class Session
{
  public:
    /** Inactive session (tracing stays off). */
    Session() = default;

    /** @param json_path Chrome trace output path ("" = inert). */
    explicit Session(std::string json_path);

    Session(Session &&other) noexcept;
    Session &operator=(Session &&other) noexcept;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Exports the trace when the session is active. */
    ~Session();

    /** @return whether this session turned tracing on. */
    bool
    active() const
    {
        return armed_;
    }

  private:
    void finish();

    std::string jsonPath_;
    bool armed_ = false;
};

} // namespace slambench::support::trace

#if SLAMBENCH_TRACE_ENABLED

#define SB_TRACE_CONCAT_IMPL(a, b) a##b
#define SB_TRACE_CONCAT(a, b) SB_TRACE_CONCAT_IMPL(a, b)

/** Open a Category::Phase span covering the rest of this scope. */
#define TRACE_SCOPE(name)                                            \
    ::slambench::support::trace::ScopedSpan SB_TRACE_CONCAT(         \
        sb_trace_span_, __LINE__)(name)

/** Record a named scalar sample (Chrome counter track). */
#define TRACE_COUNTER(name, value)                                   \
    ::slambench::support::trace::counterEvent(                       \
        name, static_cast<double>(value))

/** Mark a frame boundary; later events belong to frame @p index. */
#define TRACE_FRAME(index)                                           \
    ::slambench::support::trace::frameMarker(                        \
        static_cast<uint64_t>(index))

#else // !SLAMBENCH_TRACE_ENABLED

#define TRACE_SCOPE(name) ((void)0)
#define TRACE_COUNTER(name, value) ((void)0)
#define TRACE_FRAME(index) ((void)0)

#endif // SLAMBENCH_TRACE_ENABLED

#endif // SLAMBENCH_SUPPORT_TRACE_HPP

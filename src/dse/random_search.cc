#include "dse/random_search.hh"

#include <algorithm>

#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace.hh"

namespace vaesa {

SearchTrace
RandomSearch::run(Objective &objective, std::size_t samples, Rng &rng,
                  ThreadPool *pool,
                  const SearchCheckpointConfig *checkpoint,
                  const CancelToken *cancel) const
{
    const std::vector<double> lo = objective.lowerBounds();
    const std::vector<double> hi = objective.upperBounds();

    SearchTrace trace;
    if (checkpoint)
        resumeSearch(*checkpoint, SearchDriver::Random, trace, rng);

    // Without checkpointing the whole budget is one chunk (draw every
    // point, then score as one batch); with it, the run snapshots at
    // chunk boundaries. Draws stay strictly before evaluations in
    // every chunk and evaluation consumes no rng, so the stream --
    // and therefore the trace -- is identical in all three modes
    // (plain, checkpointed, resumed).
    // A cancellable run without checkpointing still needs bounded
    // chunks so the token is observed between batches; chunking does
    // not perturb the rng stream, so the trace stays a prefix of the
    // uncancelled run's.
    const std::size_t chunk =
        checkpoint ? std::max<std::size_t>(1, checkpoint->every)
                   : (cancel ? std::min<std::size_t>(
                                   std::max<std::size_t>(1, samples),
                                   64)
                             : samples);
    static metrics::Counter &chunksMetric =
        metrics::counter("search.random.chunks");
    static metrics::Histogram &chunkNsMetric =
        metrics::histogram("search.random.chunk_ns");
    while (trace.points.size() < samples) {
        if (cancel && cancel->expired())
            return trace; // partial best-so-far
        const trace::Span chunkSpan("random.chunk");
        const metrics::ScopedTimer chunkTimer(chunkNsMetric);
        chunksMetric.inc();
        faultCheck("random_chunk");
        const std::size_t count =
            std::min(chunk, samples - trace.points.size());
        std::vector<std::vector<double>> xs(count);
        for (std::size_t i = 0; i < count; ++i) {
            xs[i].resize(objective.dim());
            for (std::size_t d = 0; d < xs[i].size(); ++d)
                xs[i][d] = rng.uniform(lo[d], hi[d]);
        }
        const std::vector<double> values =
            objective.evaluateBatch(xs, pool);
        for (std::size_t i = 0; i < count; ++i)
            trace.add(xs[i], values[i]);

        if (checkpoint && !checkpoint->path.empty()) {
            SearchSnapshot snapshot;
            snapshot.driver = SearchDriver::Random;
            snapshot.trace = trace;
            snapshot.rng = rng.state();
            if (auto err =
                    saveSearchSnapshot(checkpoint->path, snapshot))
                warn("search snapshot save failed: ",
                     err->describe());
        }
    }
    return trace;
}

} // namespace vaesa

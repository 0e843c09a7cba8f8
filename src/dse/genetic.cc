#include "dse/genetic.hh"

#include <algorithm>
#include <cmath>

#include "util/atomic_io.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/numeric.hh"
#include "util/trace.hh"

namespace vaesa {

namespace {

struct Individual
{
    std::vector<double> genes;
    double value;
};

/** GA snapshot payload: the population at a generation boundary. */
std::string
encodePopulation(const std::vector<Individual> &population)
{
    ByteBuffer out;
    out.putU64(population.size());
    for (const Individual &ind : population) {
        out.putU64(ind.genes.size());
        out.putBytes(ind.genes.data(),
                     ind.genes.size() * sizeof(double));
        out.putF64(ind.value);
    }
    return out.data();
}

bool
decodePopulation(const std::string &payload, std::size_t dim,
                 std::vector<Individual> &population)
{
    ByteReader in(payload.data(), payload.size());
    const std::uint64_t count = in.getU64();
    if (in.failed() || count > (1u << 20))
        return false;
    population.clear();
    population.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t genes = in.getU64();
        if (in.failed() || genes != dim)
            return false;
        Individual ind;
        ind.genes.resize(genes);
        if (!in.getBytes(ind.genes.data(), genes * sizeof(double)))
            return false;
        ind.value = in.getF64();
        population.push_back(std::move(ind));
    }
    return !in.failed() && in.atEnd();
}

} // namespace

GeneticSearch::GeneticSearch(const GaOptions &options)
    : options_(options)
{
}

SearchTrace
GeneticSearch::run(Objective &objective, std::size_t samples, Rng &rng,
                   ThreadPool *pool,
                   const SearchCheckpointConfig *checkpoint,
                   const CancelToken *cancel) const
{
    const std::vector<double> lo = objective.lowerBounds();
    const std::vector<double> hi = objective.upperBounds();
    const std::size_t dim = objective.dim();
    const std::size_t pop_size =
        std::max<std::size_t>(2, options_.populationSize);

    SearchTrace trace;
    std::vector<Individual> population;
    population.reserve(pop_size);

    // Resume only once the payload decodes: the population order
    // feeds tournament selection, so a snapshot is applied either
    // completely or not at all.
    if (checkpoint && !checkpoint->path.empty()) {
        Expected<SearchSnapshot> snapshot =
            loadSearchSnapshot(checkpoint->path,
                               SearchDriver::Genetic);
        if (snapshot) {
            std::vector<Individual> resumed;
            if (decodePopulation(snapshot.value().payload, dim,
                                 resumed)) {
                trace = std::move(snapshot.value().trace);
                rng.setState(snapshot.value().rng);
                population = std::move(resumed);
                inform("resuming GA from '", checkpoint->path,
                       "' at sample ", trace.points.size());
            } else {
                warn("ignoring GA snapshot with corrupt population "
                     "payload");
            }
        } else if (snapshot.error().kind !=
                   LoadError::Kind::OpenFailed) {
            warn("ignoring unusable search snapshot: ",
                 snapshot.error().describe());
        }
    }

    const std::size_t snapshot_every =
        checkpoint ? std::max<std::size_t>(1, checkpoint->every) : 0;
    std::size_t generations = 0;
    auto maybeSnapshot = [&](bool force) {
        if (!checkpoint || checkpoint->path.empty() ||
            (!force && generations % snapshot_every != 0))
            return;
        SearchSnapshot snapshot;
        snapshot.driver = SearchDriver::Genetic;
        snapshot.trace = trace;
        snapshot.rng = rng.state();
        snapshot.payload = encodePopulation(population);
        if (auto err = saveSearchSnapshot(checkpoint->path, snapshot))
            warn("search snapshot save failed: ", err->describe());
    };

    // Rank invalid (infinite) individuals below everything finite
    // but keep them comparable among themselves.
    auto fitness_key = [](double v) {
        return std::isfinite(v) ? v : 1e300;
    };

    // Breeding is serial (it owns the rng stream); scoring runs as
    // one batch per generation, on the pool when available. Since
    // evaluate() never touches the rng, the batched run consumes the
    // identical stream — traces match serial runs seed-for-seed.
    auto scoreInto = [&](std::vector<std::vector<double>> genes) {
        const std::vector<double> values =
            objective.evaluateBatch(genes, pool);
        for (std::size_t i = 0; i < genes.size(); ++i) {
            trace.add(genes[i], values[i]);
            population.push_back(
                {std::move(genes[i]), values[i]});
        }
    };

    if (cancel && cancel->expired())
        return trace; // partial best-so-far

    if (population.empty() && trace.points.size() < samples) {
        faultCheck("ga_generation");
        const std::size_t count =
            std::min(pop_size, samples - trace.points.size());
        std::vector<std::vector<double>> genes(count);
        for (std::size_t i = 0; i < count; ++i) {
            genes[i].resize(dim);
            for (std::size_t d = 0; d < dim; ++d)
                genes[i][d] = rng.uniform(lo[d], hi[d]);
        }
        scoreInto(std::move(genes));
        ++generations;
        maybeSnapshot(trace.points.size() >= samples);
    }

    auto tournament = [&]() -> const Individual & {
        const Individual *best =
            &population[rng.index(population.size())];
        for (std::size_t t = 1; t < options_.tournamentSize; ++t) {
            const Individual &cand =
                population[rng.index(population.size())];
            if (fitness_key(cand.value) < fitness_key(best->value))
                best = &cand;
        }
        return *best;
    };

    static metrics::Counter &generationsMetric =
        metrics::counter("search.ga.generations");
    static metrics::Histogram &generationNsMetric =
        metrics::histogram("search.ga.generation_ns");
    while (trace.points.size() < samples) {
        if (cancel && cancel->expired())
            return trace; // partial best-so-far
        const trace::Span generationSpan("ga.generation");
        const metrics::ScopedTimer generationTimer(
            generationNsMetric);
        generationsMetric.inc();
        faultCheck("ga_generation");
        std::sort(population.begin(), population.end(),
                  [&](const Individual &a, const Individual &b) {
                      return fitness_key(a.value) <
                             fitness_key(b.value);
                  });
        const std::size_t elites =
            std::min(options_.elites, population.size());
        const std::size_t children =
            std::min(pop_size - elites,
                     samples - trace.points.size());

        std::vector<std::vector<double>> genes(children);
        for (std::size_t c = 0; c < children; ++c) {
            const Individual &pa = tournament();
            const Individual &pb = tournament();
            std::vector<double> child(dim);
            for (std::size_t d = 0; d < dim; ++d) {
                // BLX-alpha blend crossover.
                const double a = pa.genes[d];
                const double b = pb.genes[d];
                const double span = std::fabs(a - b);
                const double left = std::min(a, b) -
                                    options_.blendAlpha * span;
                const double right = std::max(a, b) +
                                     options_.blendAlpha * span;
                child[d] = rng.uniform(left, right);
                if (rng.uniform() < options_.mutationRate) {
                    child[d] += rng.normal(
                        0.0,
                        options_.mutationSigma * (hi[d] - lo[d]));
                }
                child[d] = clampd(child[d], lo[d], hi[d]);
            }
            genes[c] = std::move(child);
        }

        std::vector<Individual> survivors;
        survivors.reserve(pop_size);
        for (std::size_t e = 0; e < elites; ++e)
            survivors.push_back(population[e]);
        population = std::move(survivors);
        scoreInto(std::move(genes));
        ++generations;
        maybeSnapshot(trace.points.size() >= samples);
    }
    return trace;
}

SimulatedAnnealing::SimulatedAnnealing(const SaOptions &options)
    : options_(options)
{
}

SearchTrace
SimulatedAnnealing::run(Objective &objective, std::size_t samples,
                        Rng &rng) const
{
    const std::vector<double> lo = objective.lowerBounds();
    const std::vector<double> hi = objective.upperBounds();
    const std::size_t dim = objective.dim();

    SearchTrace trace;
    if (samples == 0)
        return trace;

    std::vector<double> current(dim);
    for (std::size_t d = 0; d < dim; ++d)
        current[d] = rng.uniform(lo[d], hi[d]);
    double current_value = evaluateRecovered(objective, current);
    trace.add(current, current_value);

    // Temperature scaled to the first finite observation's
    // magnitude so acceptance probabilities are meaningful across
    // objective scales.
    double scale = std::isfinite(current_value)
                       ? std::fabs(current_value) + 1e-12
                       : 1.0;
    double temperature = options_.initialTemperature * scale;
    std::size_t rejects = 0;

    while (trace.points.size() < samples) {
        std::vector<double> proposal = current;
        for (std::size_t d = 0; d < dim; ++d) {
            proposal[d] = clampd(
                proposal[d] + rng.normal(0.0, options_.stepSigma *
                                                  (hi[d] - lo[d])),
                lo[d], hi[d]);
        }
        const double value = evaluateRecovered(objective, proposal);
        trace.add(proposal, value);

        bool accept = false;
        if (!std::isfinite(current_value)) {
            accept = true;
        } else if (std::isfinite(value)) {
            if (value <= current_value) {
                accept = true;
            } else {
                const double prob = std::exp(
                    (current_value - value) /
                    std::max(temperature, 1e-300));
                accept = rng.uniform() < prob;
            }
        }
        if (accept) {
            current = std::move(proposal);
            current_value = value;
            rejects = 0;
        } else if (++rejects >= options_.restartAfterRejects) {
            // Restart from the incumbent to escape dead regions.
            current = trace.bestPoint();
            current_value = trace.best();
            rejects = 0;
        }
        temperature *= options_.coolingRate;
    }
    return trace;
}

} // namespace vaesa

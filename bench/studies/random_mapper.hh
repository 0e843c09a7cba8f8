/**
 * @file
 * Random-search mapper: the Timeloop-style baseline that CoSA (and
 * our one-shot scheduler) is measured against. Samples random legal
 * mappings and keeps the best by EDP. Used by the mapper-quality
 * ablation to validate that the one-shot scheduler produces mappings
 * competitive with search, which is the property the VAESA pipeline
 * relies on.
 */

#ifndef VAESA_BENCH_STUDIES_RANDOM_MAPPER_HH
#define VAESA_BENCH_STUDIES_RANDOM_MAPPER_HH

#include <optional>

#include "costmodel/cost_model.hh"
#include "util/rng.hh"

namespace vaesa {

/** Budgeted random mapping search. */
class RandomMapper
{
  public:
    /** Search parameters. */
    struct Options
    {
        /** Legal mappings to evaluate. */
        std::size_t samples = 200;

        /** Draws allowed per accepted legal mapping before giving
         *  up on the (arch, layer) pair. */
        std::size_t maxRejectsPerSample = 50;
    };

    /** Mapper with default options and cost model. */
    RandomMapper() = default;

    /** Mapper with explicit cost model and options. */
    RandomMapper(const CostModel &model, const Options &options);

    /**
     * Sample legal mappings and return the best by EDP.
     * @return nullopt when no legal mapping was found.
     */
    std::optional<Mapping> search(const AcceleratorConfig &arch,
                                  const LayerShape &layer,
                                  Rng &rng) const;

    /**
     * Draw one random legal mapping (log-uniform tile sizes with
     * shrink-to-fit repair).
     * @return nullopt when the draw could not be repaired.
     */
    std::optional<Mapping> sampleMapping(const AcceleratorConfig &arch,
                                         const LayerShape &layer,
                                         Rng &rng) const;

  private:
    CostModel model_;
    Options options_;
};

} // namespace vaesa

#endif // VAESA_BENCH_STUDIES_RANDOM_MAPPER_HH

/**
 * @file
 * Studies over a trained framework, built only from its public
 * accessors: the denormalized predictor read-outs (Figure 5), the
 * reconstruction error (Figures 9/10), the dataset's best and worst
 * samples (Figure 4), the worst->best interpolation (Figures 7/8) and
 * the GD step study (Figure 13); plus the Pearson correlation that
 * the latent-structure figures (4, 5, 9) report.
 */

#ifndef VAESA_BENCH_STUDIES_LATENT_HH
#define VAESA_BENCH_STUDIES_LATENT_HH

#include <vector>

#include "vaesa/latent_dse.hh"

namespace vaesa {

/** Predicted latency (cycles) at z, denormalized. */
double predictedLatency(VaesaFramework &framework,
                        const std::vector<double> &z,
                        const std::vector<double> &layer_feats);

/** Predicted energy (pJ) at z, denormalized. */
double predictedEnergy(VaesaFramework &framework,
                       const std::vector<double> &z,
                       const std::vector<double> &layer_feats);

/** Predicted EDP (cycles x pJ) at z, denormalized. */
double predictedEdp(VaesaFramework &framework,
                    const std::vector<double> &z,
                    const std::vector<double> &layer_feats);

/**
 * Pearson correlation coefficient of two equal-length samples.
 * Returns 0 when either sample is constant.
 */
double correlation(const std::vector<double> &xs,
                   const std::vector<double> &ys);

/** Mean reconstruction MSE over a dataset (deterministic pass). */
double reconstructionError(VaesaFramework &framework,
                           const Dataset &data);

/** EDP (cycles * pJ) of sample i, from its log labels. */
double sampleEdp(const Dataset &data, std::size_t i);

/** Index of the sample with the largest EDP. */
std::size_t worstSampleIndex(const Dataset &data);

/** Index of the sample with the smallest EDP. */
std::size_t bestSampleIndex(const Dataset &data);

/** One point of the interpolation study (Figures 7/8). */
struct InterpolationPoint
{
    /** Position t along the worst->best axis (t = i/N; t > 1 is the
     *  overshoot region). */
    double t = 0.0;

    /** The interpolated latent point. */
    std::vector<double> z;

    /** Predicted EDP at z. */
    double predictedEdp = 0.0;

    /** Real EDP of the decoded configuration (invalidScore when the
     *  decoded design cannot be mapped). */
    double realEdp = 0.0;
};

/**
 * Interpolate between the encodings of the dataset's worst and best
 * samples and report predicted vs real EDP along the axis.
 *
 * @param layer layer whose features condition the predictors.
 * @param segments number N of interpolation steps between z0 and z1.
 * @param overshoot additional steps past the best point (j > N).
 */
std::vector<InterpolationPoint> interpolationStudy(
    VaesaFramework &framework, const Evaluator &evaluator,
    const Dataset &data, const LayerShape &layer,
    std::size_t segments, std::size_t overshoot);

/**
 * Real EDP of the decoded design after each requested number of GD
 * steps, as a geometric mean over random starts (Figure 13). Each
 * mark is one vaeGdSearch (one descent per start) from a copy of the
 * same generator state, so every mark descends from the same start
 * points; @p rng ends as one such search leaves it.
 *
 * @param step_marks step counts to sample (e.g.\ {0, 100, 200}).
 * @return geometric-mean real EDP over the valid decodes at each
 *         mark, in mark order (invalidScore when none is valid).
 */
std::vector<double> gdStepStudy(VaesaFramework &framework,
                                const Evaluator &evaluator,
                                const LayerShape &layer,
                                std::size_t starts,
                                const std::vector<std::size_t>
                                    &step_marks,
                                const VaeGdOptions &options, Rng &rng);

} // namespace vaesa

#endif // VAESA_BENCH_STUDIES_LATENT_HH

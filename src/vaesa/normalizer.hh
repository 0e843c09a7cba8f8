/**
 * @file
 * Feature/label normalization (Section IV-A4): values are taken in
 * log2 domain (they span orders of magnitude) and min-max scaled into
 * [0, 1) using dataset extrema. The Normalizer operates on the
 * log-domain values; taking the logarithm is the caller's job (raw
 * hardware/layer features are already log2 by construction).
 */

#ifndef VAESA_VAESA_NORMALIZER_HH
#define VAESA_VAESA_NORMALIZER_HH

#include <vector>

#include "tensor/matrix.hh"
#include "util/atomic_io.hh"

namespace vaesa {

/** Per-column min-max scaler with inverse transform. */
class Normalizer
{
  public:
    Normalizer() = default;

    /** Fit column-wise extrema from a (rows x dim) sample matrix. */
    void fit(const Matrix &data);

    /** Number of columns fitted (0 before fit). */
    std::size_t dim() const { return lo_.size(); }

    /** Scale one row into [0, 1). */
    std::vector<double> transform(const std::vector<double> &row) const;

    /** Scale a whole matrix into [0, 1). */
    Matrix transform(const Matrix &data) const;

    /** Invert the scaling of one row. */
    std::vector<double> inverse(const std::vector<double> &row) const;

    /** inverse() into a caller-owned row (capacity reused). */
    void inverseInto(const std::vector<double> &row,
                     std::vector<double> &out) const;

    /**
     * Use explicit bounds instead of fitting (e.g.\ the design-space
     * grid bounds, so decoding is dataset-independent).
     */
    void setBounds(const std::vector<double> &lo,
                   const std::vector<double> &hi);

    /** Append the exact internal state to a record payload. */
    void serialize(ByteBuffer &out) const;

    /** Read state written by serialize(); LoadError on corruption. */
    static Expected<Normalizer> deserialize(ByteReader &in);

    /** Exact state equality (for round-trip tests). */
    bool operator==(const Normalizer &other) const = default;

  private:
    std::vector<double> lo_;
    std::vector<double> span_;
};

} // namespace vaesa

#endif // VAESA_VAESA_NORMALIZER_HH

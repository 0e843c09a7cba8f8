/**
 * @file
 * Slot-based matrix arena backing the nn layer's scratch buffers.
 *
 * Each module owns a fixed range of slots (reserved once) and
 * reshapes them per batch with buffer(); a slot's backing store only
 * grows, so after the first pass over the largest batch shape every
 * further buffer() call is allocation-free. growthEvents() exposes a
 * monotonic count of backing-store growths so tests can assert the
 * warm-up has actually converged.
 */

#ifndef VAESA_TENSOR_KERNELS_WORKSPACE_HH
#define VAESA_TENSOR_KERNELS_WORKSPACE_HH

#include <cstddef>
#include <cstdint>
#include <deque>

#include "tensor/matrix.hh"

namespace vaesa::kernels {

/**
 * A growable set of reusable Matrix slots.
 *
 * Slots live in a deque so references returned by buffer() stay
 * valid when later reservations extend the arena. Not thread-safe:
 * one workspace belongs to one module chain evaluated serially.
 */
class Workspace
{
  public:
    Workspace() = default;

    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    /**
     * Claim a contiguous range of `count` fresh slots.
     * @return the index of the first claimed slot.
     */
    std::size_t reserveSlots(std::size_t count);

    /**
     * The matrix in `slot`, reshaped to rows x cols. Contents are
     * unspecified on shape change; capacity is retained, so
     * reshaping within the high-water mark never allocates.
     */
    Matrix &buffer(std::size_t slot, std::size_t rows,
                   std::size_t cols);

    /** Number of reserved slots. */
    std::size_t slotCount() const { return slots_.size(); }

    /** Times any slot's backing store had to grow. */
    std::uint64_t growthEvents() const { return growths_; }

  private:
    std::deque<Matrix> slots_;
    std::uint64_t growths_ = 0;
};

} // namespace vaesa::kernels

#endif // VAESA_TENSOR_KERNELS_WORKSPACE_HH

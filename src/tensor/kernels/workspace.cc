#include "tensor/kernels/workspace.hh"

#include "util/logging.hh"

namespace vaesa::kernels {

std::size_t
Workspace::reserveSlots(std::size_t count)
{
    const std::size_t base = slots_.size();
    for (std::size_t i = 0; i < count; ++i)
        slots_.emplace_back();
    return base;
}

Matrix &
Workspace::buffer(std::size_t slot, std::size_t rows, std::size_t cols)
{
    if (slot >= slots_.size())
        panic("Workspace::buffer: slot ", slot, " out of ",
              slots_.size());
    Matrix &m = slots_[slot];
    const std::size_t before = m.capacityElements();
    m.resizeBuffer(rows, cols);
    if (m.capacityElements() != before)
        ++growths_;
    return m;
}

} // namespace vaesa::kernels

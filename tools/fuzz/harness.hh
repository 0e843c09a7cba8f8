/**
 * @file
 * Shared plumbing for the deserialization fuzz harnesses. Every
 * loader in the repo takes a file path, so each fuzz input is
 * materialized as an on-disk file before the loader runs.
 *
 * Input shape (framed targets): the first byte selects the mode.
 *   0x00  raw passthrough -- the remaining bytes become the file
 *         verbatim, so the mutator can attack the magic/version
 *         header and the CRC framing itself;
 *   else  re-framed -- the remaining bytes are split into records by
 *         u16 little-endian length prefixes and wrapped with the
 *         target's real magic, version, and per-record CRCs, so the
 *         mutator spends its budget on record *content* instead of
 *         being stopped at the checksum gate.
 * Text targets (layer files) pass no FramedSpec and take the
 * whole input verbatim.
 */

#ifndef VAESA_TOOLS_FUZZ_HARNESS_HH
#define VAESA_TOOLS_FUZZ_HARNESS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace vaesa::fuzztool {

/** Framing constants of one binary format. */
struct FramedSpec
{
    std::uint32_t magic;
    std::uint32_t version;
};

/**
 * Write one fuzz input to a per-target, per-process temp file
 * (stable across iterations, so no inode churn) and return its path.
 * Also removes any stale "<path>.prev" so the loadWithFallback()
 * backup probe never sees state from an earlier iteration.
 * @param target short name used in the temp-file name.
 * @param data fuzz input (mode byte + payload when framing given).
 * @param size input length.
 * @param framing target framing, or nullptr for raw text targets.
 * @return the file path, or "" when the input is empty or the write
 *         failed (the harness should just return 0 then).
 */
std::string materializeInput(const std::string &target,
                             const std::uint8_t *data,
                             std::size_t size,
                             const FramedSpec *framing);

} // namespace vaesa::fuzztool

#endif // VAESA_TOOLS_FUZZ_HARNESS_HH

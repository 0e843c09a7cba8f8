/**
 * @file
 * The frozen probe configs shared by the golden regression tests: 4
 * hand-picked on-grid configs spanning the design space (tiny, mid,
 * buffer-heavy, compute-heavy).
 */

#ifndef VAESA_TESTS_COMMON_GOLDEN_CONFIGS_HH
#define VAESA_TESTS_COMMON_GOLDEN_CONFIGS_HH

#include <vector>

#include "arch/design_space.hh"

namespace vaesa::testing {

/** The 4 golden probe configs, snapped on-grid. */
inline std::vector<AcceleratorConfig>
goldenConfigs()
{
    std::vector<AcceleratorConfig> configs(4);
    configs[0].numPes = 4;
    configs[0].numMacs = 64;
    configs[0].accumBufBytes = 4 * 1024;
    configs[0].weightBufBytes = 32 * 1024;
    configs[0].inputBufBytes = 8 * 1024;
    configs[0].globalBufBytes = 32 * 1024;

    configs[1].numPes = 16;
    configs[1].numMacs = 1024;
    configs[1].accumBufBytes = 48 * 1024;
    configs[1].weightBufBytes = 1024 * 1024;
    configs[1].inputBufBytes = 64 * 1024;
    configs[1].globalBufBytes = 128 * 1024;

    configs[2].numPes = 8;
    configs[2].numMacs = 256;
    configs[2].accumBufBytes = 128 * 1024;
    configs[2].weightBufBytes = 4 * 1024 * 1024;
    configs[2].inputBufBytes = 256 * 1024;
    configs[2].globalBufBytes = 1024 * 1024;

    configs[3].numPes = 32;
    configs[3].numMacs = 4096;
    configs[3].accumBufBytes = 16 * 1024;
    configs[3].weightBufBytes = 256 * 1024;
    configs[3].inputBufBytes = 32 * 1024;
    configs[3].globalBufBytes = 512 * 1024;

    // Snap every parameter so the probe set stays on-grid even if
    // the grids themselves are retuned (that legitimately rewrites
    // the golden files, which is the point).
    const DesignSpace &ds = designSpace();
    for (AcceleratorConfig &config : configs)
        for (int p = 0; p < numHwParams; ++p) {
            const auto param = static_cast<HwParam>(p);
            config.setValue(param,
                            ds.snapValue(param, config.value(param)));
        }
    return configs;
}

} // namespace vaesa::testing

#endif // VAESA_TESTS_COMMON_GOLDEN_CONFIGS_HH

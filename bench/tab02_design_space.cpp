/**
 * @file
 * Reproduces Table II: the hardware design space -- parameter maxima,
 * number of possible discrete values per parameter, and total size.
 */

#include "studies/common.hh"

#include "arch/design_space.hh"

int
main()
{
    using namespace vaesa;
    bench::banner("Table II", "Summary of the design space");

    const DesignSpace &ds = designSpace();
    std::printf("%-22s %12s %18s\n", "Parameter", "Max",
                "# Possible Values");
    CsvWriter csv(bench::csvPath("tab02_design_space.csv"));
    csv.header({"parameter", "max", "count"});

    for (int p = 0; p < numHwParams; ++p) {
        const auto param = static_cast<HwParam>(p);
        const DesignSpace::ParamSpec &spec = ds.spec(param);
        std::string max_str;
        if (param == HwParam::NumPes || param == HwParam::NumMacs) {
            max_str = std::to_string(spec.max);
        } else if (spec.max >= 1024 * 1024) {
            max_str = std::to_string(spec.max / (1024 * 1024)) + " MB";
        } else {
            max_str = std::to_string(spec.max / 1024) + " KB";
        }
        std::printf("%-22s %12s %18lld\n", spec.name.c_str(),
                    max_str.c_str(),
                    static_cast<long long>(spec.count));
        csv.row({spec.name, std::to_string(spec.max),
                 std::to_string(spec.count)});
    }
    bench::rule();
    std::printf("Total design space size: %.3g points "
                "(paper: 3.6e17)\n",
                ds.totalSize());
    return 0;
}

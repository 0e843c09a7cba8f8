/**
 * @file
 * Reproduces Table III (training workloads with unique-layer counts)
 * and prints Table IV (the 12 unseen GD test layers) for reference.
 */

#include "studies/common.hh"

int
main()
{
    using namespace vaesa;
    bench::banner("Table III / Table IV", "DNN workload summary");

    std::printf("%-14s %20s %14s\n", "Workload", "# Unique Layers",
                "Total MACs");
    CsvWriter csv(bench::csvPath("tab03_workloads.csv"));
    csv.header({"workload", "unique_layers", "total_macs"});
    for (const Workload &w : trainingWorkloads()) {
        double macs = 0.0;
        for (const LayerShape &l : w.layers)
            macs += l.macs();
        std::printf("%-14s %20zu %14.3g\n", w.name.c_str(),
                    w.layers.size(), macs);
        csv.row({w.name, std::to_string(w.layers.size()),
                 CsvWriter::cell(macs)});
    }

    bench::rule();
    std::printf("Table IV: unseen test layers "
                "(R,S,P,Q,C,K,strideW,strideH)\n");
    int row = 1;
    for (const LayerShape &l : gdTestLayers()) {
        std::printf("%2d. %s\n", row++, l.describe().c_str());
    }
    return 0;
}

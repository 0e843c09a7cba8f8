/**
 * @file
 * Dataset import. The paper's flow grows the training set as DSE
 * explores more designs and retrains or fine-tunes the VAE (Section
 * III-B3); loading a dataset from CSV lets samples scored elsewhere
 * feed that workflow.
 */

#ifndef VAESA_VAESA_DATASET_IO_HH
#define VAESA_VAESA_DATASET_IO_HH

#include <string>

#include "util/load_error.hh"
#include "vaesa/dataset.hh"

namespace vaesa {

/**
 * Read a dataset from CSV: after a header row, "layer" rows carry a
 * layer-pool entry (name, then R, S, P, Q, C, K, strideW, strideH)
 * and "sample" rows a sample (layer-pool index, the 6 raw parameter
 * values, then the log2 latency and energy labels). Normalizers are
 * fitted from the loaded samples exactly as the builder would.
 * @return the dataset, or a LoadError carrying the file name and the
 *         1-based line number of the offending row.
 */
Expected<Dataset> loadDatasetCsv(const std::string &path);

} // namespace vaesa

#endif // VAESA_VAESA_DATASET_IO_HH

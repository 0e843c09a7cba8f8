/**
 * @file
 * Parameter records: the part of a framed file (util/atomic_io.hh)
 * that holds a model's weights -- one record for the parameter count
 * and one record per parameter (name, shape, row-major payload).
 * Framework snapshots and training checkpoints embed them among their
 * own records; corruption is reported as a LoadError, never a process
 * abort.
 */

#ifndef VAESA_NN_SERIALIZE_HH
#define VAESA_NN_SERIALIZE_HH

#include <optional>
#include <vector>

#include "nn/module.hh"
#include "util/atomic_io.hh"

namespace vaesa::nn {

/** Append a matrix (rows, cols, row-major doubles) to a payload. */
void putMatrix(ByteBuffer &out, const Matrix &matrix);

/**
 * Read a matrix written by putMatrix() into an existing matrix of the
 * expected shape.
 * @return false on shape mismatch or payload overrun.
 */
bool readMatrixInto(ByteReader &in, Matrix &matrix);

/**
 * Append the parameter records (count record, then one record per
 * parameter) to a framed file being built.
 */
void writeParameterRecords(RecordWriter &out,
                           const std::vector<Parameter *> &params);

/**
 * Read parameter records written by writeParameterRecords() into an
 * existing model. Names and shapes must match the current parameter
 * list exactly.
 * @return nullopt on success; Truncated/BadChecksum/Malformed on
 *         corruption, ShapeMismatch on model/file disagreement.
 */
std::optional<LoadError>
readParameterRecords(RecordReader &in,
                     const std::vector<Parameter *> &params);

} // namespace vaesa::nn

#endif // VAESA_NN_SERIALIZE_HH

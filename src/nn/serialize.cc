#include "nn/serialize.hh"

#include <cstdint>

namespace vaesa::nn {

namespace {

constexpr std::size_t maxParameterNameLen = 4096;

} // namespace

void
putMatrix(ByteBuffer &out, const Matrix &matrix)
{
    out.putU64(matrix.rows());
    out.putU64(matrix.cols());
    out.putBytes(matrix.data(), matrix.size() * sizeof(double));
}

bool
readMatrixInto(ByteReader &in, Matrix &matrix)
{
    const std::uint64_t rows = in.getU64();
    const std::uint64_t cols = in.getU64();
    if (in.failed() || rows != matrix.rows() || cols != matrix.cols())
        return false;
    return in.getBytes(matrix.data(), matrix.size() * sizeof(double));
}

void
writeParameterRecords(RecordWriter &out,
                      const std::vector<Parameter *> &params)
{
    ByteBuffer count;
    count.putU64(params.size());
    out.writeRecord(count);
    for (const Parameter *p : params) {
        ByteBuffer payload;
        payload.putString(p->name);
        putMatrix(payload, p->value);
        out.writeRecord(payload);
    }
}

std::optional<LoadError>
readParameterRecords(RecordReader &in,
                     const std::vector<Parameter *> &params)
{
    Expected<std::string> count_record = in.readRecord();
    if (!count_record)
        return count_record.error();
    ByteReader count_reader(count_record.value().data(),
                            count_record.value().size());
    const std::uint64_t count = count_reader.getU64();
    if (count_reader.failed() || !count_reader.atEnd())
        return in.makeError(LoadError::Kind::Malformed,
                            "corrupt parameter count record");
    if (count != params.size())
        return in.makeError(
            LoadError::Kind::ShapeMismatch,
            "file has " + std::to_string(count) + " parameters, model "
            "expects " + std::to_string(params.size()));
    for (Parameter *p : params) {
        Expected<std::string> record = in.readRecord();
        if (!record)
            return record.error();
        ByteReader reader(record.value().data(),
                          record.value().size());
        const std::string name = reader.getString(maxParameterNameLen);
        if (reader.failed())
            return in.makeError(LoadError::Kind::Malformed,
                                "corrupt parameter record");
        if (name != p->name)
            return in.makeError(
                LoadError::Kind::ShapeMismatch,
                "parameter name mismatch: file '" + name +
                "' vs model '" + p->name + "'");
        if (!readMatrixInto(reader, p->value) || !reader.atEnd())
            return in.makeError(
                LoadError::Kind::ShapeMismatch,
                "shape mismatch or corrupt payload for '" + name + "'");
    }
    return std::nullopt;
}

} // namespace vaesa::nn

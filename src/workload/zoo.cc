#include "workload/zoo.hh"

#include "util/contracts.hh"

namespace vaesa {

namespace {

/** Shorthand constructor in Table IV column order. */
LayerShape
layer(std::string name, std::int64_t r, std::int64_t s, std::int64_t p,
      std::int64_t q, std::int64_t c, std::int64_t k,
      std::int64_t stride_w = 1, std::int64_t stride_h = 1)
{
    LayerShape shape;
    shape.name = std::move(name);
    shape.r = r;
    shape.s = s;
    shape.p = p;
    shape.q = q;
    shape.c = c;
    shape.k = k;
    shape.strideW = stride_w;
    shape.strideH = stride_h;
    return shape;
}

/** A [rows x in] * [in x out] GEMM in FC form (p = rows). */
LayerShape
gemm(std::string name, std::int64_t rows, std::int64_t in,
     std::int64_t out)
{
    return layer(std::move(name), 1, 1, rows, 1, in, out);
}

} // namespace

std::vector<LayerShape>
transformerBlockLayers(const std::string &prefix,
                       const TransformerConfig &config)
{
    const std::int64_t S = config.seqLen;
    const std::int64_t H = config.hidden;
    const std::int64_t A = config.heads;
    const std::int64_t F = config.ffn;
    VAESA_EXPECT(S >= 1 && H >= 1 && A >= 1 && F >= 1,
                 "transformerBlockLayers: non-positive dimension");
    VAESA_EXPECT(H % A == 0,
                 "transformerBlockLayers: heads must divide hidden");
    const std::int64_t head_dim = H / A;

    std::vector<LayerShape> block;
    block.push_back(gemm(prefix + ".qkv", S, H, 3 * H));
    // The score (Q K^T) and context (A V) GEMMs run once per head.
    for (std::int64_t h = 0; h < A; ++h) {
        block.push_back(gemm(prefix + ".attn.score", S, head_dim, S));
        block.push_back(gemm(prefix + ".attn.ctx", S, S, head_dim));
    }
    block.push_back(gemm(prefix + ".attn.out", S, H, H));
    block.push_back(gemm(prefix + ".mlp.up", S, H, F));
    block.push_back(gemm(prefix + ".mlp.down", S, F, H));
    return block;
}

Workload
transformerWorkload(std::string name, const TransformerConfig &config)
{
    VAESA_EXPECT(config.blocks >= 1,
                 "transformerWorkload: need at least one block");
    const std::vector<LayerShape> block =
        transformerBlockLayers(name, config);
    std::vector<LayerShape> sequence;
    sequence.reserve(block.size() *
                     static_cast<std::size_t>(config.blocks));
    for (std::int64_t b = 0; b < config.blocks; ++b)
        sequence.insert(sequence.end(), block.begin(), block.end());

    Workload w = countedWorkload(std::move(name), sequence);
    // Cross-check the generator against the closed form
    // L * (4*S*H^2 + 2*S*H*F + 2*S^2*H).
    const double S = static_cast<double>(config.seqLen);
    const double H = static_cast<double>(config.hidden);
    const double F = static_cast<double>(config.ffn);
    const double L = static_cast<double>(config.blocks);
    [[maybe_unused]] const double expected =
        L * (4.0 * S * H * H + 2.0 * S * H * F + 2.0 * S * S * H);
    VAESA_ENSURE(w.totalMacs() == expected,
                 "transformerWorkload: MAC total disagrees with the "
                 "closed form");
    return w;
}

Workload
bertBaseWorkload()
{
    return transformerWorkload("bert_base", {512, 768, 12, 3072, 12});
}

Workload
bertLargeWorkload()
{
    return transformerWorkload("bert_large",
                               {512, 1024, 16, 4096, 24});
}

Workload
gpt2Workload()
{
    return transformerWorkload("gpt2", {1024, 1024, 16, 4096, 24});
}

Workload
mobileNetV2Workload()
{
    // Inverted-residual stages as (expansion t, out channels c,
    // repeats n, first-block stride s) from the MobileNetV2 paper.
    const struct
    {
        std::int64_t t, c, n, s;
    } stages[] = {
        {1, 16, 1, 1},  {6, 24, 2, 2},  {6, 32, 3, 2}, {6, 64, 4, 2},
        {6, 96, 3, 1},  {6, 160, 3, 2}, {6, 320, 1, 1},
    };

    std::vector<LayerShape> seq;
    seq.push_back(
        layer("mobilenet_v2.conv1", 3, 3, 112, 112, 3, 32, 2, 2));
    std::int64_t in_ch = 32;
    std::int64_t res = 112;
    int stage_no = 0;
    for (const auto &stage : stages) {
        ++stage_no;
        for (std::int64_t b = 0; b < stage.n; ++b) {
            const std::int64_t stride = b == 0 ? stage.s : 1;
            const std::int64_t expanded = in_ch * stage.t;
            const std::int64_t out_res = res / stride;
            const std::string prefix = "mobilenet_v2.s" +
                                       std::to_string(stage_no) + "b" +
                                       std::to_string(b + 1);
            // t=1 blocks have no expansion conv.
            if (stage.t != 1)
                seq.push_back(layer(prefix + ".expand", 1, 1, res, res,
                                    in_ch, expanded));
            // Depthwise 3x3 in the per-group-C convention: c is the
            // per-group input-channel count (1), k the channel count.
            seq.push_back(layer(prefix + ".dw", 3, 3, out_res, out_res,
                                1, expanded, stride, stride));
            seq.push_back(layer(prefix + ".project", 1, 1, out_res,
                                out_res, expanded, stage.c));
            in_ch = stage.c;
            res = out_res;
        }
    }
    seq.push_back(
        layer("mobilenet_v2.conv_last", 1, 1, 7, 7, 320, 1280));
    seq.push_back(layer("mobilenet_v2.fc", 1, 1, 1, 1, 1280, 1000));

    Workload w = countedWorkload("mobilenet_v2", seq);
    // 17 inverted-residual blocks (one without expansion) plus stem,
    // head conv and classifier: 53 layer instances.
    VAESA_ENSURE(w.totalLayers() == 53,
                 "mobileNetV2Workload: expected 53 layer instances");
    return w;
}

Workload
dlrmWorkload()
{
    const std::int64_t batch = 2048;
    const std::int64_t bottom[] = {13, 512, 256, 128};
    const std::int64_t top[] = {479, 1024, 1024, 512, 256, 1};

    std::vector<LayerShape> seq;
    for (std::size_t i = 0; i + 1 < std::size(bottom); ++i)
        seq.push_back(gemm("dlrm.bot" + std::to_string(i + 1), batch,
                           bottom[i], bottom[i + 1]));
    for (std::size_t i = 0; i + 1 < std::size(top); ++i)
        seq.push_back(gemm("dlrm.top" + std::to_string(i + 1), batch,
                           top[i], top[i + 1]));
    return countedWorkload("dlrm", seq);
}

std::vector<Workload>
zooWorkloads()
{
    return {
        bertBaseWorkload(),     bertLargeWorkload(), gpt2Workload(),
        mobileNetV2Workload(),  dlrmWorkload(),
    };
}

} // namespace vaesa

#include "workload/networks.hh"

#include "util/contracts.hh"
#include "util/logging.hh"
#include "workload/zoo.hh"

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

} // namespace

std::int64_t
Workload::countOf(std::size_t i) const
{
    VAESA_EXPECT(i < layers.size(),
                 "Workload::countOf: index out of range");
    if (counts.empty())
        return 1;
    VAESA_EXPECT(counts.size() == layers.size(),
                 "Workload: counts/layers size mismatch");
    return counts[i];
}

std::int64_t
Workload::totalLayers() const
{
    std::int64_t total = 0;
    for (std::size_t i = 0; i < layers.size(); ++i)
        total += countOf(i);
    return total;
}

double
Workload::totalMacs() const
{
    double total = 0.0;
    for (std::size_t i = 0; i < layers.size(); ++i)
        total += static_cast<double>(countOf(i)) * layers[i].macs();
    return total;
}

Workload
countedWorkload(std::string name,
                const std::vector<LayerShape> &sequence)
{
    Workload w;
    w.name = std::move(name);
    w.layers = uniqueLayersCounted(sequence, &w.counts);
    return w;
}

std::vector<LayerShape>
uniqueLayersCounted(const std::vector<LayerShape> &in,
                    std::vector<std::int64_t> *counts_out)
{
    std::vector<LayerShape> out;
    if (counts_out)
        counts_out->clear();
    for (const LayerShape &candidate : in) {
        bool seen = false;
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (out[i].sameShape(candidate)) {
                seen = true;
                if (counts_out)
                    ++(*counts_out)[i];
                break;
            }
        }
        if (!seen) {
            out.push_back(candidate);
            if (counts_out)
                counts_out->push_back(1);
        }
    }
    return out;
}

std::vector<LayerShape>
alexNetLayers()
{
    return {
        layer("alexnet.conv1", 11, 11, 55, 55, 3, 64, 4, 4),
        layer("alexnet.conv2", 5, 5, 27, 27, 64, 192),
        layer("alexnet.conv3", 3, 3, 13, 13, 192, 384),
        layer("alexnet.conv4", 3, 3, 13, 13, 384, 256),
        layer("alexnet.conv5", 3, 3, 13, 13, 256, 256),
        layer("alexnet.fc6", 1, 1, 1, 1, 9216, 4096),
        layer("alexnet.fc7", 1, 1, 1, 1, 4096, 4096),
        layer("alexnet.fc8", 1, 1, 1, 1, 4096, 1000),
    };
}

std::vector<LayerShape>
resNet50Layers()
{
    // torchvision topology: the stride-2 convolution is the 3x3 inside
    // the first block of each stage. Deduplication of the full 53-conv
    // network yields exactly these 24 unique shapes.
    return {
        layer("resnet50.conv1", 7, 7, 112, 112, 3, 64, 2, 2),
        // Stage 1 at 56x56.
        layer("resnet50.s1.reduce1", 1, 1, 56, 56, 64, 64),
        layer("resnet50.s1.conv3x3", 3, 3, 56, 56, 64, 64),
        layer("resnet50.s1.expand", 1, 1, 56, 56, 64, 256),
        layer("resnet50.s1.reduce2", 1, 1, 56, 56, 256, 64),
        // Stage 2 entering 28x28.
        layer("resnet50.s2.reduce1", 1, 1, 56, 56, 256, 128),
        layer("resnet50.s2.conv3x3s2", 3, 3, 28, 28, 128, 128, 2, 2),
        layer("resnet50.s2.expand", 1, 1, 28, 28, 128, 512),
        layer("resnet50.s2.downsample", 1, 1, 28, 28, 256, 512, 2, 2),
        layer("resnet50.s2.reduce2", 1, 1, 28, 28, 512, 128),
        layer("resnet50.s2.conv3x3", 3, 3, 28, 28, 128, 128),
        // Stage 3 entering 14x14.
        layer("resnet50.s3.reduce1", 1, 1, 28, 28, 512, 256),
        layer("resnet50.s3.conv3x3s2", 3, 3, 14, 14, 256, 256, 2, 2),
        layer("resnet50.s3.expand", 1, 1, 14, 14, 256, 1024),
        layer("resnet50.s3.downsample", 1, 1, 14, 14, 512, 1024, 2, 2),
        layer("resnet50.s3.reduce2", 1, 1, 14, 14, 1024, 256),
        layer("resnet50.s3.conv3x3", 3, 3, 14, 14, 256, 256),
        // Stage 4 entering 7x7.
        layer("resnet50.s4.reduce1", 1, 1, 14, 14, 1024, 512),
        layer("resnet50.s4.conv3x3s2", 3, 3, 7, 7, 512, 512, 2, 2),
        layer("resnet50.s4.expand", 1, 1, 7, 7, 512, 2048),
        layer("resnet50.s4.downsample", 1, 1, 7, 7, 1024, 2048, 2, 2),
        layer("resnet50.s4.reduce2", 1, 1, 7, 7, 2048, 512),
        layer("resnet50.s4.conv3x3", 3, 3, 7, 7, 512, 512),
        // Classifier.
        layer("resnet50.fc", 1, 1, 1, 1, 2048, 1000),
    };
}

std::vector<LayerShape>
resNext50Layers()
{
    // ResNeXt-50-32x4d: the grouped 3x3 convolutions are stored with
    // c equal to the per-group input-channel count (width / 32), which
    // keeps the MAC total exact in the 8-column format.
    return {
        layer("resnext50.conv1", 7, 7, 112, 112, 3, 64, 2, 2),
        // Stage 1 at 56x56, internal width 128 (32 groups x 4).
        layer("resnext50.s1.reduce1", 1, 1, 56, 56, 64, 128),
        layer("resnext50.s1.conv3x3g", 3, 3, 56, 56, 4, 128),
        layer("resnext50.s1.expand", 1, 1, 56, 56, 128, 256),
        layer("resnext50.s1.downsample", 1, 1, 56, 56, 64, 256),
        layer("resnext50.s1.reduce2", 1, 1, 56, 56, 256, 128),
        // Stage 2 entering 28x28, width 256 (32 x 8).
        layer("resnext50.s2.reduce1", 1, 1, 56, 56, 256, 256),
        layer("resnext50.s2.conv3x3gs2", 3, 3, 28, 28, 8, 256, 2, 2),
        layer("resnext50.s2.expand", 1, 1, 28, 28, 256, 512),
        layer("resnext50.s2.downsample", 1, 1, 28, 28, 256, 512, 2, 2),
        layer("resnext50.s2.reduce2", 1, 1, 28, 28, 512, 256),
        layer("resnext50.s2.conv3x3g", 3, 3, 28, 28, 8, 256),
        // Stage 3 entering 14x14, width 512 (32 x 16).
        layer("resnext50.s3.reduce1", 1, 1, 28, 28, 512, 512),
        layer("resnext50.s3.conv3x3gs2", 3, 3, 14, 14, 16, 512, 2, 2),
        layer("resnext50.s3.expand", 1, 1, 14, 14, 512, 1024),
        layer("resnext50.s3.downsample", 1, 1, 14, 14, 512, 1024, 2, 2),
        layer("resnext50.s3.reduce2", 1, 1, 14, 14, 1024, 512),
        layer("resnext50.s3.conv3x3g", 3, 3, 14, 14, 16, 512),
        // Stage 4 entering 7x7, width 1024 (32 x 32).
        layer("resnext50.s4.reduce1", 1, 1, 14, 14, 1024, 1024),
        layer("resnext50.s4.conv3x3gs2", 3, 3, 7, 7, 32, 1024, 2, 2),
        layer("resnext50.s4.expand", 1, 1, 7, 7, 1024, 2048),
        layer("resnext50.s4.downsample", 1, 1, 7, 7, 1024, 2048, 2, 2),
        layer("resnext50.s4.reduce2", 1, 1, 7, 7, 2048, 1024),
        layer("resnext50.s4.conv3x3g", 3, 3, 7, 7, 32, 1024),
        // Classifier.
        layer("resnext50.fc", 1, 1, 1, 1, 2048, 1000),
    };
}

std::vector<LayerShape>
deepBenchLayers()
{
    // DeepBench inference convolutions: the OCR (speech/text) stack on
    // 700x161 spectrogram-like inputs and the face-recognition stack.
    // Output sizes follow floor((in - filter)/stride) + 1.
    return {
        layer("deepbench.ocr1", 5, 20, 348, 71, 1, 32, 2, 2),
        layer("deepbench.ocr2", 5, 10, 172, 35, 32, 32, 2, 2),
        layer("deepbench.text1", 3, 3, 478, 46, 1, 16),
        layer("deepbench.text2", 3, 3, 238, 22, 16, 32),
        layer("deepbench.text3", 3, 3, 118, 10, 32, 64),
        layer("deepbench.text4", 3, 3, 58, 4, 64, 128),
        layer("deepbench.face1", 3, 3, 53, 53, 3, 64, 2, 2),
        layer("deepbench.face2", 3, 3, 52, 52, 64, 64),
        layer("deepbench.face3", 3, 3, 25, 25, 128, 128),
    };
}

std::vector<LayerShape>
gdTestLayers()
{
    // Exactly Table IV of the paper, in row order.
    return {
        layer("gd.layer01", 1, 1, 1, 1, 2208, 1000),
        layer("gd.layer02", 1, 1, 1, 1, 512, 256),
        layer("gd.layer03", 1, 1, 28, 28, 512, 512),
        layer("gd.layer04", 3, 3, 14, 14, 192, 48),
        layer("gd.layer05", 3, 3, 14, 14, 512, 512),
        layer("gd.layer06", 3, 3, 28, 28, 192, 48),
        layer("gd.layer07", 3, 3, 28, 28, 512, 512),
        layer("gd.layer08", 3, 3, 350, 80, 64, 64),
        layer("gd.layer09", 3, 3, 56, 56, 192, 48),
        layer("gd.layer10", 3, 3, 56, 56, 256, 256),
        layer("gd.layer11", 3, 3, 7, 7, 192, 48),
        layer("gd.layer12", 5, 5, 700, 161, 1, 64, 2, 2),
    };
}

std::vector<Workload>
trainingWorkloads()
{
    return {
        {"alexnet", alexNetLayers(), {}},
        {"resnet50", resNet50Layers(), {}},
        {"resnext50", resNext50Layers(), {}},
        {"deepbench", deepBenchLayers(), {}},
    };
}

Workload
workloadByName(const std::string &name)
{
    std::optional<Workload> found = tryWorkloadByName(name);
    if (!found)
        fatal("unknown workload '", name,
              "' (expected alexnet/resnet50/resnext50/deepbench or "
              "a zoo name: bert_base/bert_large/gpt2/mobilenet_v2/"
              "dlrm)");
    return *std::move(found);
}

std::optional<Workload>
tryWorkloadByName(const std::string &name)
{
    for (Workload &w : trainingWorkloads())
        if (w.name == name)
            return std::move(w);
    for (Workload &w : zooWorkloads())
        if (w.name == name)
            return std::move(w);
    return std::nullopt;
}

} // namespace vaesa

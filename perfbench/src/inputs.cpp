#include "inputs.h"

#include <cstring>
#include <stdexcept>

#include "serve/batcher.h"
#include "tensor/rng.h"

namespace perfbench {

using namespace pelta;

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream) {
  return rng{run_seed}.fork(stream).seed();
}

namespace {

data::dataset_config cifar10(std::uint64_t seed, std::int64_t train_per_class,
                             std::int64_t test_per_class) {
  data::dataset_config c = data::cifar10_like();
  c.train_per_class = train_per_class;
  c.test_per_class = test_per_class;
  c.seed = derive_seed(seed, data_stream);
  return c;
}

void append_tensor(byte_buffer& out, const tensor& t) { serialize_tensor(t, out); }

template <class T>
void append_raw(byte_buffer& out, T v) {
  std::uint8_t bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.insert(out.end(), bytes, bytes + sizeof v);
}

void append_dataset(byte_buffer& out, const data::dataset& ds) {
  append_tensor(out, ds.train_images());
  append_tensor(out, ds.train_labels());
  append_tensor(out, ds.test_images());
  append_tensor(out, ds.test_labels());
}

}  // namespace

// Request images come from the class templates, not the splits: serving
// needs only a few of them.
data::dataset_config serve_vit_data(std::uint64_t seed) { return cifar10(seed, 1, 1); }

// 32x32x3 images, so the MLP's input layer is 3072 wide; the test split is
// the int8 calibration set.
data::dataset_config serve_mlp_data(std::uint64_t seed) {
  data::dataset_config c = cifar10(seed, 1, 40);
  c.image_size = 32;
  return c;
}

data::dataset_config fl_data(std::uint64_t seed) { return cifar10(seed, 60, 25); }

data::dataset_config attack_data(std::uint64_t seed) { return cifar10(seed, 60, 25); }

request_pool make_request_pool(const data::dataset& ds, const pool_shape& shape,
                               std::uint64_t seed) {
  const auto [calls, per_call, rate_per_s] = shape;
  const rng images{derive_seed(seed, image_stream)};
  const rng arrivals{derive_seed(seed, arrival_stream)};
  request_pool pool(static_cast<std::size_t>(calls));
  for (std::int64_t c = 0; c < calls; ++c) {
    const std::vector<double> stamps = serve::make_poisson_arrivals(
        per_call, 1e9 / rate_per_s, arrivals.fork(static_cast<std::uint64_t>(c)).seed());
    rng gen = images.fork(static_cast<std::uint64_t>(c));
    std::vector<serve::classify_request>& requests = pool[static_cast<std::size_t>(c)];
    requests.reserve(static_cast<std::size_t>(per_call));
    for (std::int64_t i = 0; i < per_call; ++i) {
      serve::classify_request r;
      r.id = c * per_call + i;
      r.image = ds.sample_image(gen, gen.uniform_int(0, ds.config().classes - 1));
      r.submit_ns = stamps[static_cast<std::size_t>(i)];
      requests.push_back(std::move(r));
    }
  }
  return pool;
}

byte_buffer input_bytes(const std::string& workload, std::uint64_t seed) {
  byte_buffer out;
  const auto append_pool = [&out](const request_pool& pool) {
    for (const auto& call : pool)
      for (const serve::classify_request& r : call) {
        append_raw(out, r.id);
        append_raw(out, r.submit_ns);
        append_tensor(out, r.image);
      }
  };
  if (workload == "serve_vit_fp32") {
    const data::dataset ds{serve_vit_data(seed)};
    append_pool(make_request_pool(ds, serve_vit_pool, seed));
  } else if (workload == "serve_mlp_int8_cluster") {
    const data::dataset ds{serve_mlp_data(seed)};
    append_dataset(out, ds);
    append_pool(make_request_pool(ds, serve_mlp_pool, seed));
  } else if (workload == "fl_round") {
    append_dataset(out, data::dataset{fl_data(seed)});
  } else if (workload == "attack_pgd_shielded") {
    append_dataset(out, data::dataset{attack_data(seed)});
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  for (const std::uint64_t stream : {model_stream, federation_stream, training_stream, attack_stream})
    append_raw(out, derive_seed(seed, stream));
  return out;
}

}  // namespace perfbench

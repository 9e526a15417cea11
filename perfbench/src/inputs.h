// Seeded inputs of the benchmark's workloads. The program under test only
// ever sees what these functions generate from the run's --seed: the same
// seed gives byte-identical inputs, another seed different ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/request.h"
#include "tensor/serialize.h"

namespace perfbench {

/// Independent seed stream `stream` of the run seed.
std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream);

enum seed_stream : std::uint64_t {
  data_stream = 1,
  model_stream = 2,
  arrival_stream = 3,
  image_stream = 4,
  federation_stream = 5,
  training_stream = 6,
  attack_stream = 7,
};

/// Datasets: cifar10_like, with the per-workload splits and image size.
pelta::data::dataset_config serve_vit_data(std::uint64_t seed);
pelta::data::dataset_config serve_mlp_data(std::uint64_t seed);
pelta::data::dataset_config fl_data(std::uint64_t seed);
pelta::data::dataset_config attack_data(std::uint64_t seed);

/// A serve workload's pool of distinct run() calls, cycled through by the
/// timed loop.
struct pool_shape {
  std::int64_t calls = 0;
  std::int64_t per_call = 0;  ///< single-image requests per call
  double rate_per_s = 0.0;    ///< Poisson arrival rate, simulated
};
inline constexpr pool_shape serve_vit_pool{8, 256, 1e4};
inline constexpr pool_shape serve_mlp_pool{2, 2048, 4e4};

/// Fresh class samples of `ds` with Poisson arrival stamps, each call's
/// stamps starting at 0. Request ids are unique across the whole pool.
using request_pool = std::vector<std::vector<pelta::serve::classify_request>>;
request_pool make_request_pool(const pelta::data::dataset& ds, const pool_shape& shape,
                               std::uint64_t seed);

/// Every generated input of `workload` at `seed`, serialized.
pelta::byte_buffer input_bytes(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench

// Contiguous row-major n-dimensional float tensor.
//
// Value semantics: copies are deep, moves are cheap. Every higher layer of
// the library (autodiff, nn, attacks, TEE marshalling) is built on this type.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/check.h"
#include "tensor/rng.h"
#include "tensor/shape.h"

namespace pelta {

class tensor {
public:
  /// Empty scalar-shaped tensor holding a single zero.
  tensor() : shape_{}, data_(1, 0.0f) {}

  /// Zero-filled tensor of the given shape.
  explicit tensor(shape_t shape)
      : shape_{std::move(shape)}, data_(static_cast<std::size_t>(numel_of(shape_)), 0.0f) {}

  /// Tensor with explicit contents; data.size() must equal numel_of(shape).
  tensor(shape_t shape, std::vector<float> data)
      : shape_{std::move(shape)}, data_{std::move(data)} {
    PELTA_CHECK_MSG(static_cast<std::int64_t>(data_.size()) == numel_of(shape_),
                    "data size " << data_.size() << " != numel of " << to_string(shape_));
  }

  // ---- factories -----------------------------------------------------------

  static tensor zeros(shape_t shape) { return tensor{std::move(shape)}; }

  static tensor full(shape_t shape, float value) {
    tensor t{std::move(shape)};
    for (float& x : t.data_) x = value;
    return t;
  }

  static tensor ones(shape_t shape) { return full(std::move(shape), 1.0f); }

  /// Scalar tensor (shape []).
  static tensor scalar(float value) {
    tensor t;
    t.data_[0] = value;
    return t;
  }

  /// I.i.d. normal entries.
  static tensor randn(rng& gen, shape_t shape, float mean = 0.0f, float stddev = 1.0f) {
    tensor t{std::move(shape)};
    for (float& x : t.data_) x = gen.normal(mean, stddev);
    return t;
  }

  /// I.i.d. uniform entries in [lo, hi).
  static tensor rand_uniform(rng& gen, shape_t shape, float lo = 0.0f, float hi = 1.0f) {
    tensor t{std::move(shape)};
    for (float& x : t.data_) x = gen.uniform(lo, hi);
    return t;
  }

  /// [0, 1, 2, ...] as floats.
  static tensor arange(std::int64_t n) {
    tensor t{shape_t{n}};
    for (std::int64_t i = 0; i < n; ++i) t.data_[static_cast<std::size_t>(i)] = static_cast<float>(i);
    return t;
  }

  // ---- observers -----------------------------------------------------------

  const shape_t& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }

  /// Extent of dimension `d`; negative d counts from the back (-1 = last).
  std::int64_t size(std::int64_t d) const {
    if (d < 0) d += ndim();
    PELTA_CHECK_MSG(d >= 0 && d < ndim(), "dim " << d << " out of range for " << to_string(shape_));
    return shape_[static_cast<std::size_t>(d)];
  }

  /// Bytes of payload (fp32), as accounted by the TEE enclave simulator.
  std::int64_t byte_size() const { return numel() * static_cast<std::int64_t>(sizeof(float)); }

  bool same_shape(const tensor& other) const { return shape_ == other.shape_; }

  std::span<const float> data() const { return {data_.data(), data_.size()}; }
  std::span<float> data() { return {data_.data(), data_.size()}; }

  // ---- element access ------------------------------------------------------

  float& operator[](std::int64_t i) {
    PELTA_CHECK_MSG(i >= 0 && i < numel(), "flat index " << i << " out of range " << numel());
    return data_[static_cast<std::size_t>(i)];
  }
  float operator[](std::int64_t i) const {
    PELTA_CHECK_MSG(i >= 0 && i < numel(), "flat index " << i << " out of range " << numel());
    return data_[static_cast<std::size_t>(i)];
  }

  float& at(std::int64_t i, std::int64_t j) { return data_[flat2(i, j)]; }
  float at(std::int64_t i, std::int64_t j) const { return data_[flat2(i, j)]; }

  float& at(std::int64_t i, std::int64_t j, std::int64_t k) { return data_[flat3(i, j, k)]; }
  float at(std::int64_t i, std::int64_t j, std::int64_t k) const { return data_[flat3(i, j, k)]; }

  float& at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) {
    return data_[flat4(i, j, k, l)];
  }
  float at(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const {
    return data_[flat4(i, j, k, l)];
  }

  /// Scalar value of a one-element tensor.
  float item() const {
    PELTA_CHECK_MSG(numel() == 1, "item() on tensor of shape " << to_string(shape_));
    return data_[0];
  }

  // ---- shape manipulation (always cheap or O(n) copy) -----------------------

  /// Same data, new shape (numel must match). Copies the data of an
  /// lvalue; an rvalue hands its buffer over.
  tensor reshape(shape_t new_shape) const& { return tensor{*this}.reshape(std::move(new_shape)); }
  tensor reshape(shape_t new_shape) && {
    PELTA_CHECK_MSG(numel_of(new_shape) == numel(),
                    "reshape " << to_string(shape_) << " -> " << to_string(new_shape));
    shape_ = std::move(new_shape);
    return std::move(*this);
  }

  tensor flatten() const { return reshape({numel()}); }

  // ---- in-place arithmetic ---------------------------------------------------

  tensor& add_(const tensor& other) {
    PELTA_CHECK_MSG(same_shape(other), "add_ shape mismatch " << to_string(shape_) << " vs "
                                                              << to_string(other.shape_));
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
  }

  tensor& sub_(const tensor& other) {
    PELTA_CHECK_MSG(same_shape(other), "sub_ shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
  }

  tensor& mul_(float s) {
    for (float& x : data_) x *= s;
    return *this;
  }

  tensor& add_scaled_(const tensor& other, float s) {
    PELTA_CHECK_MSG(same_shape(other), "add_scaled_ shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
    return *this;
  }

  tensor& fill_(float v) {
    for (float& x : data_) x = v;
    return *this;
  }

  tensor& clamp_(float lo, float hi) {
    for (float& x : data_) x = x < lo ? lo : (x > hi ? hi : x);
    return *this;
  }

private:
  std::size_t flat2(std::int64_t i, std::int64_t j) const {
    PELTA_CHECK_MSG(ndim() == 2, "at(i,j) on " << to_string(shape_));
    PELTA_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
    return static_cast<std::size_t>(i * shape_[1] + j);
  }
  std::size_t flat3(std::int64_t i, std::int64_t j, std::int64_t k) const {
    PELTA_CHECK_MSG(ndim() == 3, "at(i,j,k) on " << to_string(shape_));
    PELTA_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 && k < shape_[2]);
    return static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k);
  }
  std::size_t flat4(std::int64_t i, std::int64_t j, std::int64_t k, std::int64_t l) const {
    PELTA_CHECK_MSG(ndim() == 4, "at(i,j,k,l) on " << to_string(shape_));
    PELTA_CHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 && k < shape_[2] &&
                l >= 0 && l < shape_[3]);
    return static_cast<std::size_t>(((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l);
  }

  shape_t shape_;
  std::vector<float> data_;
};

}  // namespace pelta

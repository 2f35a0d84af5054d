#ifndef TRINIT_UTIL_OWNED_SPAN_H_
#define TRINIT_UTIL_OWNED_SPAN_H_

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace trinit::util {

/// A read-only array that either owns its elements (vector-backed, the
/// build-from-TSV and varint-decode paths) or views memory owned
/// elsewhere (a span over a raw snapshot section, mapped or read into
/// a buffer). Index structures (`rdf::TripleStore`,
/// `rdf::ScoreOrderIndex`, `rdf::GraphStats`) store their arrays
/// through this type so built and snapshot-loaded engines share one
/// code path — every consumer just sees `std::span<const T>`.
///
/// A viewing OwnedSpan does not manage the lifetime of the viewed
/// memory; whoever creates the view must keep the backing bytes alive
/// for as long as the structure is reachable (the storage layer parks
/// a `shared_ptr` to the file buffer or mapping inside the loaded
/// `xkg::Xkg` — see docs/CONCURRENCY.md, "Backing lifetime").
template <typename T>
class OwnedSpan {
 public:
  OwnedSpan() = default;

  /// Owning: adopts the vector. Implicit on purpose — every pre-mmap
  /// call site that produced a vector keeps compiling unchanged.
  OwnedSpan(std::vector<T> v)  // NOLINT(google-explicit-constructor)
      : owned_(std::move(v)), view_(owned_) {}

  /// Non-owning view of memory kept alive by someone else.
  static OwnedSpan View(std::span<const T> s) {
    OwnedSpan out;
    out.view_ = s;
    return out;
  }

  // Moves must re-anchor the view when the elements are owned: the
  // vector's buffer pointer survives a move, but self-referencing
  // `view_` through `other.owned_` after the vector moved would be
  // fragile under SSO-like small-buffer implementations.
  OwnedSpan(OwnedSpan&& other) noexcept { MoveFrom(std::move(other)); }
  OwnedSpan& operator=(OwnedSpan&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }
  OwnedSpan(const OwnedSpan&) = delete;
  OwnedSpan& operator=(const OwnedSpan&) = delete;

  std::span<const T> span() const { return view_; }
  operator std::span<const T>() const {  // NOLINT
    return view_;
  }

  const T* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T& operator[](size_t i) const { return view_[i]; }
  const T& front() const { return view_.front(); }
  const T& back() const { return view_.back(); }
  auto begin() const { return view_.begin(); }
  auto end() const { return view_.end(); }

  /// True when the elements live in the owned vector (false for views
  /// over snapshot bytes — the basis of the load report's
  /// resident-bytes estimate).
  bool owns() const { return !owned_.empty(); }

  /// Bytes of private (per-process) memory held by this array: the
  /// owned buffer, or 0 for a view.
  size_t owned_bytes() const { return owned_.capacity() * sizeof(T); }

 private:
  void MoveFrom(OwnedSpan&& other) {
    const bool owned = other.owns();
    owned_ = std::move(other.owned_);
    view_ = owned ? std::span<const T>(owned_) : other.view_;
    other.owned_.clear();
    other.view_ = {};
  }

  std::vector<T> owned_;
  std::span<const T> view_;
};

}  // namespace trinit::util

#endif  // TRINIT_UTIL_OWNED_SPAN_H_

#pragma once

// One stats schema. Each stats struct lists its members once, next to its
// definition, as an X-macro, and registers the list in its namespace:
//
//   #define CASH_RUN_COUNTERS_FIELDS(X, HOST) X(instructions) X(sw_checks) ...
//   CASH_STATS_SCHEMA(RunCounters, CASH_RUN_COUNTERS_FIELDS)
//
// X(member) is under the bit-identity contract: every engine tier and
// serving strategy must leave it the same. HOST(member) is host-only (a
// host-side cache's or pool's own accounting): walked, never compared.
// CASH_STATS_SCHEMA does not compile unless the list names as many members
// as the struct has, so a new member is compared until it is marked HOST.
//
// A leaf's path names a nested member "counters.sw_checks", an optional's
// contents "fault.kind", a map entry by key "profile[main].calls", a vector
// element by its `name` "classes[default].p99_latency_cycles" and an array
// element by index "fault_stats.hits[2]".

#include <array>
#include <charconv>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

namespace cash::stats {

template <class S, class M>
struct Field {
  const char* name;
  M S::*member;
  bool host;
};

template <class S, class M>
constexpr Field<S, M> field(const char* name, M S::*member, bool host) {
  return {name, member, host};
}

template <class T>
concept Schema = requires(const T* t) { stats_schema(t); };

// One step of a path, linked towards the root (whose part is empty).
struct Path {
  const Path* parent{nullptr};
  std::string_view part;
  bool element{false}; // "[part]" rather than ".part"
};

inline std::string to_string(const Path& path) {
  std::string out = path.parent ? to_string(*path.parent) : std::string();
  if (path.element) {
    return out + "[" + std::string(path.part) + "]";
  }
  return out.empty() ? std::string(path.part)
                     : out + "." + std::string(path.part);
}

namespace detail {

template <class T>
constexpr bool kIsOptional = false;
template <class T>
constexpr bool kIsOptional<std::optional<T>> = true;
template <class T>
constexpr bool kIsMap = false;
template <class K, class V>
constexpr bool kIsMap<std::map<K, V>> = true;
template <class T>
constexpr bool kIsSequence = false;
template <class T>
constexpr bool kIsSequence<std::vector<T>> = true;
template <class T, std::size_t N>
constexpr bool kIsSequence<std::array<T, N>> = true;

// Walks `a` and `b` side by side (one object twice for a plain walk),
// calling leaf(path, x, y) on each pair of leaves and on a shape
// difference ("fault.has_value", "profile.size", "profile[f]" for a key
// only `a` has). A true return stops the walk.
template <class T, class Leaf>
bool zip(const Path& path, T& a, T& b, Leaf& leaf, bool skip_host) {
  using V = std::remove_const_t<T>;
  if constexpr (Schema<V>) {
    return std::apply(
        [&](const auto&... f) {
          return ((!(f.host && skip_host) &&
                   zip(Path{&path, f.name}, a.*f.member, b.*f.member, leaf,
                       skip_host)) ||
                  ...);
        },
        stats_schema(&a));
  } else if constexpr (kIsOptional<V>) {
    if (a.has_value() != b.has_value()) {
      return leaf(Path{&path, "has_value"}, a.has_value(), b.has_value());
    }
    return a.has_value() && zip(path, *a, *b, leaf, skip_host);
  } else if constexpr (kIsMap<V>) {
    if (a.size() != b.size()) {
      return leaf(Path{&path, "size"}, a.size(), b.size());
    }
    for (auto& [key, value] : a) {
      const Path entry{&path, key, true};
      const auto other = b.find(key);
      if (other == b.end()
              ? leaf(entry, true, false)
              : zip(entry, value, other->second, leaf, skip_host)) {
        return true;
      }
    }
    return false;
  } else if constexpr (kIsSequence<V>) {
    if (a.size() != b.size()) {
      return leaf(Path{&path, "size"}, a.size(), b.size());
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      char digits[24];
      std::string_view key(
          digits, std::to_chars(digits, std::end(digits), i).ptr - digits);
      if constexpr (requires { std::string_view(a[i].name); }) {
        key = a[i].name;
      }
      if (zip(Path{&path, key, true}, a[i], b[i], leaf, skip_host)) {
        return true;
      }
    }
    return false;
  } else {
    return leaf(path, a, b);
  }
}

} // namespace detail

// Calls fn(path, value) for every leaf of `s`, host-only ones included, in
// declaration order; `value` is mutable when `s` is.
template <class T, class Fn>
  requires Schema<std::remove_const_t<T>>
void for_each_field(T& s, Fn&& fn) {
  auto leaf = [&fn](const Path& path, auto&& value, auto&&) {
    fn(to_string(path), value);
    return false;
  };
  detail::zip(Path{}, s, s, leaf, false);
}

// The path of the first simulated leaf where `a` and `b` differ, or "".
template <Schema T>
std::string first_difference(const T& a, const T& b) {
  std::string found;
  auto leaf = [&found](const Path& path, const auto& x, const auto& y) {
    if (x == y) {
      return false;
    }
    found = to_string(path);
    return true;
  };
  detail::zip(Path{}, a, b, leaf, true);
  return found;
}

// Field-wise a += b over a flat schema of numbers.
template <Schema T>
constexpr T& add_fields(T& a, const T& b) {
  std::apply([&](const auto&... f) { ((a.*f.member += b.*f.member), ...); },
             stats_schema(&a));
  return a;
}

} // namespace cash::stats

#define CASH_STATS_FIELD(member) \
  ::cash::stats::field(#member, &Self::member, false),
#define CASH_STATS_HOST_FIELD(member) \
  ::cash::stats::field(#member, &Self::member, true),
#define CASH_STATS_BINDING(member) , member
#define CASH_STATS_DROP_FIRST(first, ...) __VA_ARGS__
#define CASH_STATS_BINDINGS(...) CASH_STATS_DROP_FIRST(__VA_ARGS__)

// Registers LIST as Type's schema. The structured binding takes one name
// per list entry, so the build fails when the list and the struct's
// members differ in number.
#define CASH_STATS_SCHEMA(Type, LIST)                                      \
  constexpr auto stats_schema(const Type*) {                               \
    using Self = Type;                                                     \
    return std::tuple{LIST(CASH_STATS_FIELD, CASH_STATS_HOST_FIELD)};      \
  }                                                                        \
  inline void stats_schema_names_every_member(Type& s) {                   \
    [[maybe_unused]] auto& [CASH_STATS_BINDINGS(                           \
        LIST(CASH_STATS_BINDING, CASH_STATS_BINDING))] = s;                \
  }

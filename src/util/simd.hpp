// Portable SIMD wrapper for the evaluation hot path.
//
// One backend is chosen at compile time from the compiler's target macros:
// AVX2 (4 doubles per vector), SSE2 (2), NEON/AArch64 (2), or a scalar
// struct backend (1) that compiles the same kernel code to plain scalar
// operations. Building with -DDALUT_SIMD=OFF defines DALUT_SIMD_DISABLE and
// forces the scalar backend regardless of the target.
//
// The wrapper exposes exactly the operations the kernels need, in two
// granularities:
//
//  * Lane vectors (VecD / VecU / VecI, kLanes wide): elementwise double,
//    u64-mask, and i32 arithmetic for the blend sweeps and the bit-cost /
//    error kernels.
//  * Fixed granules (D2 = one interleaved {cost0, cost1} cell, D4 = two
//    cells): the building blocks of the cost-matrix gather and the pattern
//    sweep's column tiles, defined for every backend so those kernels are
//    backend-generic.
//
// Bit-identity contract: no operation here reassociates floating-point
// arithmetic. Vector adds are elementwise onto independent accumulators,
// bitwise blends select exactly the double the scalar ternary would, and
// integer->double conversions are exact for the value ranges the kernels
// feed them (|v| <= 2^26 everywhere, squares taken in the double domain).
// Kernels that need a sequential reduction keep it scalar and only
// vectorize the elementwise term computation, so results are bit-identical
// across backends, including the forced-scalar fallback.
//
// set_force_scalar(true) makes the kernels take their reference scalar
// paths at runtime; tests use it to compare SIMD and scalar results within
// one binary (docs/performance.md, "SIMD dispatch & out-of-core tables").
#pragma once

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#if !defined(DALUT_SIMD_DISABLE) && defined(__AVX2__)
#define DALUT_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(DALUT_SIMD_DISABLE) && \
    (defined(__SSE2__) || defined(_M_X64) || \
     (defined(_M_IX86_FP) && _M_IX86_FP >= 2))
#define DALUT_SIMD_SSE2 1
#include <emmintrin.h>
#elif !defined(DALUT_SIMD_DISABLE) && defined(__ARM_NEON) && \
    defined(__aarch64__)
#define DALUT_SIMD_NEON 1
#include <arm_neon.h>
#else
#define DALUT_SIMD_SCALAR 1
#endif

namespace dalut::util::simd {

enum class Isa { kScalar, kSse2, kAvx2, kNeon };

#if defined(DALUT_SIMD_AVX2)
inline constexpr Isa kIsa = Isa::kAvx2;
inline constexpr unsigned kLanes = 4;
#elif defined(DALUT_SIMD_SSE2)
inline constexpr Isa kIsa = Isa::kSse2;
inline constexpr unsigned kLanes = 2;
#elif defined(DALUT_SIMD_NEON)
inline constexpr Isa kIsa = Isa::kNeon;
inline constexpr unsigned kLanes = 2;
#else
inline constexpr Isa kIsa = Isa::kScalar;
inline constexpr unsigned kLanes = 1;
#endif

constexpr const char* isa_name() noexcept {
  switch (kIsa) {
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse2:
      return "sse2";
    case Isa::kNeon:
      return "neon";
    case Isa::kScalar:
      return "scalar";
  }
  return "scalar";
}

/// Runtime kill switch: kernels route through their reference scalar paths
/// while set. For bit-identity tests; not thread-aware beyond the atomic.
inline std::atomic<bool>& force_scalar_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}
inline bool force_scalar() noexcept {
  return force_scalar_flag().load(std::memory_order_relaxed);
}
inline void set_force_scalar(bool value) noexcept {
  force_scalar_flag().store(value, std::memory_order_relaxed);
}
/// True when kernels should take their vector paths.
inline bool enabled() noexcept {
  return kIsa != Isa::kScalar && !force_scalar();
}

inline void prefetch(const void* p) noexcept {
#if defined(DALUT_SIMD_AVX2) || defined(DALUT_SIMD_SSE2)
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
#elif defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

// ---- Lane vectors -------------------------------------------------------

#if defined(DALUT_SIMD_AVX2)

using VecD = __m256d;  ///< kLanes doubles
using VecU = __m256i;  ///< kLanes u64 select masks
using VecI = __m128i;  ///< kLanes i32 values

inline VecD dzero() noexcept { return _mm256_setzero_pd(); }
inline VecD dbroadcast(double v) noexcept { return _mm256_set1_pd(v); }
inline VecD dload(const double* p) noexcept { return _mm256_load_pd(p); }
inline VecD dloadu(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void dstore(double* p, VecD v) noexcept { _mm256_store_pd(p, v); }
inline void dstoreu(double* p, VecD v) noexcept { _mm256_storeu_pd(p, v); }
inline VecD dadd(VecD a, VecD b) noexcept { return _mm256_add_pd(a, b); }
inline VecD dsub(VecD a, VecD b) noexcept { return _mm256_sub_pd(a, b); }
inline VecD dmul(VecD a, VecD b) noexcept { return _mm256_mul_pd(a, b); }
inline VecD dand(VecD a, VecD b) noexcept { return _mm256_and_pd(a, b); }
/// Lane mask (all-ones / all-zeros) of a != b, ordered non-signalling.
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return _mm256_cmp_pd(a, b, _CMP_NEQ_OQ);
}

inline VecU uloadu(const std::uint64_t* p) noexcept {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline VecU ubroadcast(std::uint64_t v) noexcept {
  return _mm256_set1_epi64x(static_cast<long long>(v));
}
inline VecU uand(VecU a, VecU b) noexcept { return _mm256_and_si256(a, b); }
inline VecU uor(VecU a, VecU b) noexcept { return _mm256_or_si256(a, b); }
/// ~a & b (intrinsic operand order).
inline VecU uandnot(VecU a, VecU b) noexcept {
  return _mm256_andnot_si256(a, b);
}
inline VecD as_double(VecU v) noexcept { return _mm256_castsi256_pd(v); }

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline VecI ibroadcast(std::int32_t v) noexcept { return _mm_set1_epi32(v); }
inline VecI iadd(VecI a, VecI b) noexcept { return _mm_add_epi32(a, b); }
inline VecI isub(VecI a, VecI b) noexcept { return _mm_sub_epi32(a, b); }
inline VecI iand(VecI a, VecI b) noexcept { return _mm_and_si128(a, b); }
inline VecI ior(VecI a, VecI b) noexcept { return _mm_or_si128(a, b); }
inline VecI iandnot(VecI a, VecI b) noexcept {
  return _mm_andnot_si128(a, b);
}
/// Signed per-lane a > b as an all-ones/all-zeros lane mask.
inline VecI icmpgt(VecI a, VecI b) noexcept { return _mm_cmpgt_epi32(a, b); }
/// mask ? a : b, per lane.
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
/// Exact conversion of the kLanes signed i32 values to doubles.
inline VecD i_to_d(VecI v) noexcept { return _mm256_cvtepi32_pd(v); }

#elif defined(DALUT_SIMD_SSE2)

using VecD = __m128d;
using VecU = __m128i;
using VecI = __m128i;  ///< low 2 lanes hold the values

inline VecD dzero() noexcept { return _mm_setzero_pd(); }
inline VecD dbroadcast(double v) noexcept { return _mm_set1_pd(v); }
inline VecD dload(const double* p) noexcept { return _mm_load_pd(p); }
inline VecD dloadu(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void dstore(double* p, VecD v) noexcept { _mm_store_pd(p, v); }
inline void dstoreu(double* p, VecD v) noexcept { _mm_storeu_pd(p, v); }
inline VecD dadd(VecD a, VecD b) noexcept { return _mm_add_pd(a, b); }
inline VecD dsub(VecD a, VecD b) noexcept { return _mm_sub_pd(a, b); }
inline VecD dmul(VecD a, VecD b) noexcept { return _mm_mul_pd(a, b); }
inline VecD dand(VecD a, VecD b) noexcept { return _mm_and_pd(a, b); }
inline VecD dcmpneq(VecD a, VecD b) noexcept { return _mm_cmpneq_pd(a, b); }

inline VecU uloadu(const std::uint64_t* p) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline VecU ubroadcast(std::uint64_t v) noexcept {
  return _mm_set1_epi64x(static_cast<long long>(v));
}
inline VecU uand(VecU a, VecU b) noexcept { return _mm_and_si128(a, b); }
inline VecU uor(VecU a, VecU b) noexcept { return _mm_or_si128(a, b); }
inline VecU uandnot(VecU a, VecU b) noexcept {
  return _mm_andnot_si128(a, b);
}
inline VecD as_double(VecU v) noexcept { return _mm_castsi128_pd(v); }

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}
inline VecI ibroadcast(std::int32_t v) noexcept { return _mm_set1_epi32(v); }
inline VecI iadd(VecI a, VecI b) noexcept { return _mm_add_epi32(a, b); }
inline VecI isub(VecI a, VecI b) noexcept { return _mm_sub_epi32(a, b); }
inline VecI iand(VecI a, VecI b) noexcept { return _mm_and_si128(a, b); }
inline VecI ior(VecI a, VecI b) noexcept { return _mm_or_si128(a, b); }
inline VecI iandnot(VecI a, VecI b) noexcept {
  return _mm_andnot_si128(a, b);
}
inline VecI icmpgt(VecI a, VecI b) noexcept { return _mm_cmpgt_epi32(a, b); }
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
inline VecD i_to_d(VecI v) noexcept { return _mm_cvtepi32_pd(v); }

#elif defined(DALUT_SIMD_NEON)

using VecD = float64x2_t;
using VecU = uint64x2_t;
using VecI = int32x2_t;

inline VecD dzero() noexcept { return vdupq_n_f64(0.0); }
inline VecD dbroadcast(double v) noexcept { return vdupq_n_f64(v); }
inline VecD dload(const double* p) noexcept { return vld1q_f64(p); }
inline VecD dloadu(const double* p) noexcept { return vld1q_f64(p); }
inline void dstore(double* p, VecD v) noexcept { vst1q_f64(p, v); }
inline void dstoreu(double* p, VecD v) noexcept { vst1q_f64(p, v); }
inline VecD dadd(VecD a, VecD b) noexcept { return vaddq_f64(a, b); }
inline VecD dsub(VecD a, VecD b) noexcept { return vsubq_f64(a, b); }
inline VecD dmul(VecD a, VecD b) noexcept { return vmulq_f64(a, b); }
inline VecD dand(VecD a, VecD b) noexcept {
  return vreinterpretq_f64_u64(
      vandq_u64(vreinterpretq_u64_f64(a), vreinterpretq_u64_f64(b)));
}
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return vreinterpretq_f64_u64(
      veorq_u64(vceqq_f64(a, b), vdupq_n_u64(~std::uint64_t{0})));
}

inline VecU uloadu(const std::uint64_t* p) noexcept { return vld1q_u64(p); }
inline VecU ubroadcast(std::uint64_t v) noexcept { return vdupq_n_u64(v); }
inline VecU uand(VecU a, VecU b) noexcept { return vandq_u64(a, b); }
inline VecU uor(VecU a, VecU b) noexcept { return vorrq_u64(a, b); }
inline VecU uandnot(VecU a, VecU b) noexcept {
  return vbicq_u64(b, a);  // b & ~a
}
inline VecD as_double(VecU v) noexcept { return vreinterpretq_f64_u64(v); }

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return vreinterpret_s32_u32(vld1_u32(p));
}
inline VecI ibroadcast(std::int32_t v) noexcept { return vdup_n_s32(v); }
inline VecI iadd(VecI a, VecI b) noexcept { return vadd_s32(a, b); }
inline VecI isub(VecI a, VecI b) noexcept { return vsub_s32(a, b); }
inline VecI iand(VecI a, VecI b) noexcept { return vand_s32(a, b); }
inline VecI ior(VecI a, VecI b) noexcept { return vorr_s32(a, b); }
inline VecI iandnot(VecI a, VecI b) noexcept { return vbic_s32(b, a); }
inline VecI icmpgt(VecI a, VecI b) noexcept {
  return vreinterpret_s32_u32(vcgt_s32(a, b));
}
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
inline VecD i_to_d(VecI v) noexcept {
  return vcvtq_f64_s64(vmovl_s32(v));
}

#else  // scalar backend

struct VecD {
  double v;
};
struct VecU {
  std::uint64_t v;
};
struct VecI {
  std::int32_t v;
};

inline VecD dzero() noexcept { return {0.0}; }
inline VecD dbroadcast(double v) noexcept { return {v}; }
inline VecD dload(const double* p) noexcept { return {*p}; }
inline VecD dloadu(const double* p) noexcept { return {*p}; }
inline void dstore(double* p, VecD v) noexcept { *p = v.v; }
inline void dstoreu(double* p, VecD v) noexcept { *p = v.v; }
inline VecD dadd(VecD a, VecD b) noexcept { return {a.v + b.v}; }
inline VecD dsub(VecD a, VecD b) noexcept { return {a.v - b.v}; }
inline VecD dmul(VecD a, VecD b) noexcept { return {a.v * b.v}; }
inline VecD dand(VecD a, VecD b) noexcept {
  return {std::bit_cast<double>(std::bit_cast<std::uint64_t>(a.v) &
                                std::bit_cast<std::uint64_t>(b.v))};
}
inline VecD dcmpneq(VecD a, VecD b) noexcept {
  return {std::bit_cast<double>(a.v != b.v ? ~std::uint64_t{0}
                                           : std::uint64_t{0})};
}

inline VecU uloadu(const std::uint64_t* p) noexcept { return {*p}; }
inline VecU ubroadcast(std::uint64_t v) noexcept { return {v}; }
inline VecU uand(VecU a, VecU b) noexcept { return {a.v & b.v}; }
inline VecU uor(VecU a, VecU b) noexcept { return {a.v | b.v}; }
inline VecU uandnot(VecU a, VecU b) noexcept { return {~a.v & b.v}; }
inline VecD as_double(VecU v) noexcept {
  return {std::bit_cast<double>(v.v)};
}

inline VecI iloadu(const std::uint32_t* p) noexcept {
  return {static_cast<std::int32_t>(*p)};
}
inline VecI ibroadcast(std::int32_t v) noexcept { return {v}; }
inline VecI iadd(VecI a, VecI b) noexcept { return {a.v + b.v}; }
inline VecI isub(VecI a, VecI b) noexcept { return {a.v - b.v}; }
inline VecI iand(VecI a, VecI b) noexcept { return {a.v & b.v}; }
inline VecI ior(VecI a, VecI b) noexcept { return {a.v | b.v}; }
inline VecI iandnot(VecI a, VecI b) noexcept { return {~a.v & b.v}; }
inline VecI icmpgt(VecI a, VecI b) noexcept {
  return {a.v > b.v ? std::int32_t{-1} : std::int32_t{0}};
}
inline VecI iselect(VecI mask, VecI a, VecI b) noexcept {
  return ior(iand(mask, a), iandnot(mask, b));
}
inline VecD i_to_d(VecI v) noexcept { return {static_cast<double>(v.v)}; }

#endif

// ---- Fixed granules for the interleaved cells ---------------------------
// D2 is one {cost0, cost1} cell (16 bytes), D4 two adjacent cells. Both are
// defined for every backend so the blocked gather and the pattern tiles are
// backend-generic; on the scalar backend they compile to plain double moves.
// A value-initialized D4 (`D4{}`) is all zeros on every backend.

#if defined(DALUT_SIMD_AVX2)

using D2 = __m128d;
using D4 = __m256d;

inline D2 loadu2(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void storeu2(double* p, D2 v) noexcept { _mm_storeu_pd(p, v); }
inline D4 loadu4(const double* p) noexcept { return _mm256_loadu_pd(p); }
inline void storeu4(double* p, D4 v) noexcept { _mm256_storeu_pd(p, v); }
inline D2 low2(D4 v) noexcept { return _mm256_castpd256_pd128(v); }
inline D2 high2(D4 v) noexcept { return _mm256_extractf128_pd(v, 1); }
inline D4 join2(D2 lo, D2 hi) noexcept { return _mm256_set_m128d(hi, lo); }
inline D4 add4(D4 a, D4 b) noexcept { return _mm256_add_pd(a, b); }
/// [a0 a1 a2 a3] -> [a1 a0 a3 a2]: swaps the two costs of each cell.
inline D4 swap_pairs4(D4 v) noexcept { return _mm256_permute_pd(v, 0b0101); }

/// a = [a0 a1 a2 a3], b = [b0 b1 b2 b3] ->
/// lo = [a0 b0 a1 b1], hi = [a2 b2 a3 b3].
inline void interleave4(D4 a, D4 b, D4& lo, D4& hi) noexcept {
  const D4 t0 = _mm256_unpacklo_pd(a, b);  // [a0 b0 a2 b2]
  const D4 t1 = _mm256_unpackhi_pd(a, b);  // [a1 b1 a3 b3]
  lo = _mm256_permute2f128_pd(t0, t1, 0x20);
  hi = _mm256_permute2f128_pd(t0, t1, 0x31);
}

/// Inverse of interleave4: a = [e0 o0 e1 o1], b = [e2 o2 e3 o3] ->
/// evens = [e0 e1 e2 e3], odds = [o0 o1 o2 o3].
inline void deinterleave4(D4 a, D4 b, D4& evens, D4& odds) noexcept {
  const D4 t0 = _mm256_permute2f128_pd(a, b, 0x20);  // [e0 o0 e2 o2]
  const D4 t1 = _mm256_permute2f128_pd(a, b, 0x31);  // [e1 o1 e3 o3]
  evens = _mm256_unpacklo_pd(t0, t1);
  odds = _mm256_unpackhi_pd(t0, t1);
}

#else  // SSE2 / NEON / scalar: D4 as a pair of D2 halves

#if defined(DALUT_SIMD_SSE2)
using D2 = __m128d;
inline D2 loadu2(const double* p) noexcept { return _mm_loadu_pd(p); }
inline void storeu2(double* p, D2 v) noexcept { _mm_storeu_pd(p, v); }
inline D2 add2_(D2 a, D2 b) noexcept { return _mm_add_pd(a, b); }
inline D2 unpacklo2_(D2 a, D2 b) noexcept { return _mm_unpacklo_pd(a, b); }
inline D2 unpackhi2_(D2 a, D2 b) noexcept { return _mm_unpackhi_pd(a, b); }
inline D2 swap2_(D2 v) noexcept { return _mm_shuffle_pd(v, v, 0b01); }
#elif defined(DALUT_SIMD_NEON)
using D2 = float64x2_t;
inline D2 loadu2(const double* p) noexcept { return vld1q_f64(p); }
inline void storeu2(double* p, D2 v) noexcept { vst1q_f64(p, v); }
inline D2 add2_(D2 a, D2 b) noexcept { return vaddq_f64(a, b); }
inline D2 unpacklo2_(D2 a, D2 b) noexcept { return vzip1q_f64(a, b); }
inline D2 unpackhi2_(D2 a, D2 b) noexcept { return vzip2q_f64(a, b); }
inline D2 swap2_(D2 v) noexcept { return vextq_f64(v, v, 1); }
#else
struct D2 {
  double v[2];
};
inline D2 loadu2(const double* p) noexcept { return {{p[0], p[1]}}; }
inline void storeu2(double* p, D2 v) noexcept {
  p[0] = v.v[0];
  p[1] = v.v[1];
}
inline D2 add2_(D2 a, D2 b) noexcept {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1]}};
}
inline D2 unpacklo2_(D2 a, D2 b) noexcept { return {{a.v[0], b.v[0]}}; }
inline D2 unpackhi2_(D2 a, D2 b) noexcept { return {{a.v[1], b.v[1]}}; }
inline D2 swap2_(D2 v) noexcept { return {{v.v[1], v.v[0]}}; }
#endif

struct D4 {
  D2 lo, hi;
};

inline D4 loadu4(const double* p) noexcept {
  return {loadu2(p), loadu2(p + 2)};
}
inline void storeu4(double* p, D4 v) noexcept {
  storeu2(p, v.lo);
  storeu2(p + 2, v.hi);
}
inline D2 low2(D4 v) noexcept { return v.lo; }
inline D2 high2(D4 v) noexcept { return v.hi; }
inline D4 join2(D2 lo, D2 hi) noexcept { return {lo, hi}; }
inline D4 add4(D4 a, D4 b) noexcept {
  return {add2_(a.lo, b.lo), add2_(a.hi, b.hi)};
}
inline D4 swap_pairs4(D4 v) noexcept { return {swap2_(v.lo), swap2_(v.hi)}; }

inline void interleave4(D4 a, D4 b, D4& lo, D4& hi) noexcept {
  lo = {unpacklo2_(a.lo, b.lo), unpackhi2_(a.lo, b.lo)};
  hi = {unpacklo2_(a.hi, b.hi), unpackhi2_(a.hi, b.hi)};
}

inline void deinterleave4(D4 a, D4 b, D4& evens, D4& odds) noexcept {
  evens = {unpacklo2_(a.lo, a.hi), unpacklo2_(b.lo, b.hi)};
  odds = {unpackhi2_(a.lo, a.hi), unpackhi2_(b.lo, b.hi)};
}

#endif

}  // namespace dalut::util::simd

namespace dalut::util {

/// Minimal allocator giving std::vector storage 64-byte (cache line /
/// full-vector) alignment. Scratch buffers on the evaluation hot path use
/// aligned_vector so kernel base pointers sit on cache-line boundaries.
template <typename T, std::size_t kAlign = 64>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(kAlign >= alignof(T) && (kAlign & (kAlign - 1)) == 0,
                "alignment must be a power of two covering alignof(T)");

  AlignedAllocator() noexcept = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor): allocator rebinding.
  AlignedAllocator(const AlignedAllocator<U, kAlign>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, kAlign>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlign}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// std::vector with 64-byte-aligned storage.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

/// Debug-build check that a kernel base pointer honours the alignment
/// contract of aligned_vector.
inline void assert_aligned64([[maybe_unused]] const void* p) noexcept {
  assert(reinterpret_cast<std::uintptr_t>(p) % 64 == 0);
}

}  // namespace dalut::util

// Compile-time concurrency contracts.
//
// Thin macro layer over Clang's thread-safety attributes
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), in the style
// of absl/base/thread_annotations.h. Annotating a mutex-protected member
// with PITEX_GUARDED_BY (and locking functions with
// PITEX_ACQUIRE/RELEASE/REQUIRES) turns the repo's lock discipline —
// serve-during-update via epoch-swapped snapshots, sharded caches, the
// work-stealing scheduler — into contracts the compiler checks: under
// clang the build carries -Wthread-safety (plus -Werror in CI), so an
// access to a guarded member without its mutex fails compilation instead
// of maybe tripping TSan at runtime. GCC compiles the annotations away.
//
// The annotations attach to pitex::Mutex (src/util/mutex.h), the
// PITEX_CAPABILITY-annotated wrapper this repo uses instead of a bare
// std::mutex (libstdc++'s std::mutex carries no capability attributes,
// so the analysis cannot see through it).
//
// PITEX_NOALLOC is the second contract in this header: it marks a
// function as part of a zero-steady-state-allocation hot path. The
// compiler ignores it (it expands to a clang `annotate` attribute when
// available, nothing otherwise); tools/check/pitex_check.py enforces it
// by rejecting any reachable allocating call in the same translation
// unit. See docs/static_analysis.md.

#ifndef PITEX_SRC_UTIL_THREAD_ANNOTATIONS_H_
#define PITEX_SRC_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define PITEX_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define PITEX_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op
#endif

/// Declares a data member protected by the given capability (mutex).
/// Reading requires the capability shared; writing requires it exclusive.
#define PITEX_GUARDED_BY(x) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

/// Like PITEX_GUARDED_BY for pointer members: the *pointed-to* data is
/// protected, the pointer itself may be read freely.
#define PITEX_PT_GUARDED_BY(x) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

/// Declares that the caller must hold the given capabilities exclusively
/// before invoking the function (the `Locked` suffix convention).
#define PITEX_REQUIRES(...) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Declares that the caller must hold the given capabilities at least
/// shared.
#define PITEX_REQUIRES_SHARED(...) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability exclusively and does not release it.
#define PITEX_ACQUIRE(...) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Function releases the (exclusively held) capability.
#define PITEX_RELEASE(...) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Declares that the caller must NOT hold the given capabilities
/// (deadlock prevention for self-locking public entry points).
#define PITEX_EXCLUDES(...) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Marks a type as a capability (applied to pitex::Mutex).
#define PITEX_CAPABILITY(x) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

/// Marks an RAII type whose lifetime equals a capability hold
/// (applied to pitex::MutexLock).
#define PITEX_SCOPED_CAPABILITY \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

/// Returns a reference to the capability protecting the returned data.
#define PITEX_RETURN_CAPABILITY(x) \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining why the discipline holds anyway.
#define PITEX_NO_THREAD_SAFETY_ANALYSIS \
  PITEX_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Allocation contract (enforced by tools/check, not the compiler).

#if defined(__clang__)
#define PITEX_NOALLOC __attribute__((annotate("pitex::noalloc")))
#else
/// Marks a function as a zero-steady-state-allocation hot path: no
/// reachable `new` / `malloc` / allocating-container call in the same
/// translation unit (tools/check/pitex_check.py, rule `noalloc`).
/// Intentional capacity-retaining growth points are suppressed inline
/// with `// pitex-check: allow(noalloc): <reason>`.
#define PITEX_NOALLOC
#endif

#endif  // PITEX_SRC_UTIL_THREAD_ANNOTATIONS_H_

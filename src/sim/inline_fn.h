/**
 * @file
 * Small-buffer move-only callable for the event-queue fast path.
 *
 * std::function heap-allocates any callable bigger than its tiny internal
 * buffer (16 bytes on common ABIs) — one malloc/free per scheduled event
 * for the simulator's typical `[this, request]` completion closures. An
 * InlineFn stores callables up to kInlineBytes in place inside the event
 * pool slot and only falls back to the heap beyond that, so the hot
 * schedule/fire cycle performs zero allocations.
 */
#ifndef HERACLES_SIM_INLINE_FN_H
#define HERACLES_SIM_INLINE_FN_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace heracles::sim {

/**
 * Move-only type-erased `void()` callable with inline storage.
 *
 * Callables up to kInlineBytes (with fundamental alignment and a
 * non-throwing move) live inside the object; larger ones are held through
 * one heap allocation. Invoking an empty InlineFn is undefined; check
 * with operator bool first. A moved-from InlineFn is empty.
 */
class InlineFn
{
  public:
    /** Inline capacity: fits a `this` pointer plus ~5 words of capture,
     *  which covers every closure the simulation layers schedule. */
    static constexpr size_t kInlineBytes = 48;

    InlineFn() = default;

    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, InlineFn>>>
    InlineFn(Fn&& fn)  // NOLINT(google-explicit-constructor)
    {
        Emplace(std::forward<Fn>(fn));
    }

    InlineFn(InlineFn&& other) noexcept : ops_(other.ops_)
    {
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    InlineFn&
    operator=(InlineFn&& other) noexcept
    {
        if (this != &other) {
            Reset();
            ops_ = other.ops_;
            if (ops_ != nullptr) {
                ops_->relocate(buf_, other.buf_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineFn(const InlineFn&) = delete;
    InlineFn& operator=(const InlineFn&) = delete;

    ~InlineFn() { Reset(); }

    /**
     * Replaces the held callable with one constructed in place from
     * @p fn: a single construction, no intermediate InlineFn to relocate.
     */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, InlineFn>>>
    void
    Emplace(Fn&& fn)
    {
        using T = std::decay_t<Fn>;
        static_assert(std::is_invocable_r_v<void, T&>,
                      "InlineFn requires a void() callable");
        Reset();
        if constexpr (FitsInline<T>) {
            ::new (static_cast<void*>(buf_)) T(std::forward<Fn>(fn));
            ops_ = &kInlineOps<T>;
        } else {
            // Heap fallback: store the T* in the buffer.
            T* p = new T(std::forward<Fn>(fn));
            ::new (static_cast<void*>(buf_)) T*(p);
            ops_ = &kHeapOps<T>;
        }
    }

    /** Destroys the held callable (if any), leaving this empty. */
    void
    Reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    /** Invokes the held callable. @pre !empty(). */
    void operator()() { ops_->call(buf_); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** True when the callable lives in the inline buffer (no heap). */
    bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

  private:
    struct Ops {
        void (*call)(void* obj);
        /** Move-constructs src's callable into dst, then destroys src. */
        void (*relocate)(void* dst, void* src);
        void (*destroy)(void* obj);
        bool heap;
    };

    template <typename T>
    static constexpr bool FitsInline =
        sizeof(T) <= kInlineBytes &&
        alignof(T) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<T>;

    template <typename T>
    static T*
    Obj(void* buf)
    {
        return std::launder(reinterpret_cast<T*>(buf));
    }

    template <typename T>
    static constexpr Ops kInlineOps = {
        /*call=*/[](void* obj) { (*Obj<T>(obj))(); },
        /*relocate=*/
        [](void* dst, void* src) {
            ::new (dst) T(std::move(*Obj<T>(src)));
            Obj<T>(src)->~T();
        },
        /*destroy=*/[](void* obj) { Obj<T>(obj)->~T(); },
        /*heap=*/false,
    };

    template <typename T>
    static constexpr Ops kHeapOps = {
        /*call=*/[](void* obj) { (**Obj<T*>(obj))(); },
        /*relocate=*/
        [](void* dst, void* src) { ::new (dst) T*(*Obj<T*>(src)); },
        /*destroy=*/[](void* obj) { delete *Obj<T*>(obj); },
        /*heap=*/true,
    };

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

}  // namespace heracles::sim

#endif  // HERACLES_SIM_INLINE_FN_H

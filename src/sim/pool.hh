/**
 * @file
 * Fixed-size block recycling for per-request hot-path state.
 *
 * The host datapath allocates one shared LatencyBreakdown per page
 * operation; with plain make_shared every page op pays a heap
 * round-trip. BlockPool recycles the shared_ptr control-block-plus-
 * payload nodes through a freelist backed by chunked slabs, and
 * PoolAllocator adapts it to std::allocate_shared, so steady-state
 * allocation is a pointer pop/push.
 *
 * Ownership: allocator copies stored in control blocks hold the pool
 * through PoolPtr, a deliberately non-atomic refcounted handle, so a
 * pooled shared_ptr parked in a pending engine event can outlive the
 * component that minted it without paying an atomic pair per
 * allocation (the reason this beats std::shared_ptr<BlockPool>).
 *
 * Not thread-safe by design: a pool belongs to one model component
 * (e.g. one Ssd) and is only touched from that component's engine
 * events. src/ starts no thread, and a sweep thread (bench/harness)
 * owns its whole experiment, so a pool — refcount included — never
 * sees two threads at once.
 */

#ifndef DSSD_SIM_POOL_HH
#define DSSD_SIM_POOL_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace dssd
{

/**
 * Freelist of equally-sized blocks, grown in chunks and never shrunk.
 * The block size locks in on first use; a request for any other size
 * (never hit through PoolAllocator in practice) falls through to the
 * global heap.
 */
class BlockPool
{
  public:
    BlockPool() = default;
    BlockPool(const BlockPool &) = delete;
    BlockPool &operator=(const BlockPool &) = delete;

    void *
    allocate(std::size_t bytes)
    {
        if (_blockBytes == 0)
            _blockBytes = bytes;
        if (bytes != _blockBytes)
            return ::operator new(bytes);
        if (_free.empty())
            grow();
        void *p = _free.back();
        _free.pop_back();
        return p;
    }

    void
    deallocate(void *p, std::size_t bytes)
    {
        if (bytes != _blockBytes) {
            ::operator delete(p);
            return;
        }
        _free.push_back(p);
    }

    /** Total blocks owned (free + in flight); grows on demand. */
    std::size_t capacity() const { return _capacity; }

  private:
    friend class PoolPtr;

    static constexpr std::size_t kChunkBlocks = 256;

    void
    grow()
    {
        // Respect max_align_t like operator new does; the shared_ptr
        // control node has no stricter requirement.
        std::size_t stride =
            (_blockBytes + alignof(std::max_align_t) - 1) /
            alignof(std::max_align_t) * alignof(std::max_align_t);
        _chunks.push_back(
            std::make_unique<unsigned char[]>(stride * kChunkBlocks));
        unsigned char *base = _chunks.back().get();
        for (std::size_t i = 0; i < kChunkBlocks; ++i)
            _free.push_back(base + i * stride);
        _capacity += kChunkBlocks;
    }

    std::size_t _blockBytes = 0;
    std::size_t _capacity = 0;
    std::vector<void *> _free;
    std::vector<std::unique_ptr<unsigned char[]>> _chunks;

    std::size_t _refs = 0; ///< managed by PoolPtr (single-threaded)
};

/**
 * Non-atomic shared handle to a BlockPool. Copies are plain integer
 * bumps, which is what keeps the pooled-allocation fast path cheaper
 * than malloc; the single-threaded-confinement contract above is what
 * makes that sound.
 */
class PoolPtr
{
  public:
    /** A handle to a fresh pool (refcount 1). */
    static PoolPtr
    make()
    {
        return PoolPtr(new BlockPool);
    }

    PoolPtr(const PoolPtr &o) : _p(o._p) { ++_p->_refs; }

    PoolPtr &
    operator=(const PoolPtr &o)
    {
        PoolPtr tmp(o);
        std::swap(_p, tmp._p);
        return *this;
    }

    ~PoolPtr()
    {
        if (--_p->_refs == 0)
            destroy(_p);
    }

    BlockPool &operator*() const { return *_p; }
    BlockPool *operator->() const { return _p; }
    BlockPool *get() const { return _p; }

  private:
    explicit PoolPtr(BlockPool *p) : _p(p) { _p->_refs = 1; }

    /// Kept out of line: inlined into allocate_shared, the delete
    /// makes gcc's -Wuse-after-free flag the caller's own handle,
    /// which still holds a reference there.
    [[gnu::noinline]] static void destroy(BlockPool *p) { delete p; }

    BlockPool *_p;
};

/**
 * Minimal allocator over a PoolPtr, for std::allocate_shared. The
 * allocator copy stored in each control block pins the pool until the
 * last pooled node is destroyed.
 */
template <typename T>
class PoolAllocator
{
  public:
    using value_type = T;

    explicit PoolAllocator(PoolPtr pool) : _pool(std::move(pool)) {}

    template <typename U>
    PoolAllocator(const PoolAllocator<U> &other) : _pool(other._pool)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(_pool->allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        _pool->deallocate(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PoolAllocator<U> &other) const
    {
        return _pool.get() == other._pool.get();
    }

    template <typename U>
    bool
    operator!=(const PoolAllocator<U> &other) const
    {
        return _pool.get() != other._pool.get();
    }

    /// public so the rebind converting ctor sees it across T/U
    PoolPtr _pool;
};

/** allocate_shared from @p pool: pooled control block + payload. */
template <typename T, typename... Args>
std::shared_ptr<T>
makePooled(const PoolPtr &pool, Args &&...args)
{
    return std::allocate_shared<T>(PoolAllocator<T>(pool),
                                   std::forward<Args>(args)...);
}

} // namespace dssd

#endif // DSSD_SIM_POOL_HH

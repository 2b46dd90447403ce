//===- alloc/ConcurrentAllocator.cpp - Multithreaded front-end -------------===//

#include "alloc/ConcurrentAllocator.h"

#include "alloc/SizeClass.h"
#include "diefast/CanaryOps.h"

#include <cassert>
#include <unordered_map>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Thread-exit plumbing
//
// Each thread's first allocation against an allocator registers the
// (allocator, cache) pair in a thread_local registry whose destructor
// flushes the cache back — but only if the allocator is still alive,
// which a global registry of live instances (keyed by address *and*
// instance id, so a recycled address cannot impersonate a dead
// allocator) decides under its own lock.  Lock order here is
// LiveRegistry -> BackendLock; the allocator destructor takes the
// registry lock alone (to deregister) and the backend lock alone (to
// flush), never nested, so no cycle exists.
//===----------------------------------------------------------------------===//

namespace {

std::mutex &liveRegistryLock() {
  // Leaked on purpose: main-thread TLS destructors run during exit and
  // must still be able to lock this.
  static std::mutex *M = new std::mutex;
  return *M;
}

std::unordered_map<void *, uint64_t> &liveRegistry() {
  static auto *Map = new std::unordered_map<void *, uint64_t>;
  return *Map;
}

std::atomic<uint64_t> NextInstanceId{1};

struct TlsEntry {
  ConcurrentAllocator *Owner;
  uint64_t Instance;
  ConcurrentAllocator::ThreadCache *Cache;
};

struct TlsRegistry {
  std::vector<TlsEntry> Entries;

  ~TlsRegistry() {
    for (const TlsEntry &E : Entries) {
      std::lock_guard<std::mutex> Lock(liveRegistryLock());
      auto It = liveRegistry().find(E.Owner);
      if (It == liveRegistry().end() || It->second != E.Instance)
        continue; // The allocator died first; it flushed everything.
      E.Owner->flushCache(*E.Cache);
    }
  }
};

thread_local TlsRegistry Tls;

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

ConcurrentAllocator::ConcurrentAllocator(const ConcurrentAllocatorConfig &Config,
                                         const CallContext *Context)
    : Cfg(Config), Context(Context), Backend(Config.Heap, Context),
      // Same derived seed as DieFastHeap: the canary stream must be
      // independent of placement, and matching the constant keeps
      // MagazineSize == 1 runs bit-identical to DieFastHeap.
      CanaryRng(Config.Heap.Seed ^ 0xca11a7c0ffee1234ULL),
      HeapCanary(Canary::random(CanaryRng)),
      InstanceId(NextInstanceId.fetch_add(1, std::memory_order_relaxed)) {
  // Lock-free pointer resolution requires that no page be shared by two
  // slabs: guard regions of at least a page guarantee it (4 KiB pages;
  // see DieHardHeap::registerRange).
  assert(Cfg.Heap.GuardBytes >= 4096 &&
         "concurrent front-end requires page-sized guard regions");
  assert(!Cfg.Heap.LegacyHotPath &&
         "the legacy hot path is single-threaded only");
  assert(Cfg.MagazineSize >= 1 && "magazines hold at least one slot");
  std::lock_guard<std::mutex> Lock(liveRegistryLock());
  liveRegistry()[this] = InstanceId;
}

ConcurrentAllocator::~ConcurrentAllocator() {
  {
    // Deregister first: threads exiting from here on skip their flush.
    std::lock_guard<std::mutex> Lock(liveRegistryLock());
    liveRegistry().erase(this);
  }
  flushAll();
}

//===----------------------------------------------------------------------===//
// Caches
//===----------------------------------------------------------------------===//

ConcurrentAllocator::ThreadCache &ConcurrentAllocator::createCache() {
  std::lock_guard<std::mutex> Lock(CacheLock);
  // The k-th cache's fill stream depends only on the heap seed and k, so
  // a run that creates its caches in a fixed order is reproducible.
  const uint64_t CanarySeed = (Cfg.Heap.Seed ^ 0xca11a7c0ffee1234ULL) +
                              (AllCaches.size() + 1) * 0x9e3779b97f4a7c15ULL;
  AllCaches.emplace_back(new ThreadCache(sizeclass::numClasses(), CanarySeed));
  return *AllCaches.back();
}

ConcurrentAllocator::ThreadCache *ConcurrentAllocator::ownCache() const {
  for (const TlsEntry &E : Tls.Entries)
    if (E.Owner == this && E.Instance == InstanceId)
      return E.Cache;
  return nullptr;
}

ConcurrentAllocator::ThreadCache &ConcurrentAllocator::threadCache() {
  if (ThreadCache *Own = ownCache())
    return *Own;
  ThreadCache &Fresh = createCache();
  Tls.Entries.push_back(TlsEntry{this, InstanceId, &Fresh});
  return Fresh;
}

std::unique_lock<std::mutex> ConcurrentAllocator::lockBackend() {
  std::unique_lock<std::mutex> Lock(BackendLock);
  LockAcquires.fetch_add(1, std::memory_order_relaxed);
  Backend.advanceClockTo(Clock.load(std::memory_order_relaxed));
  return Lock;
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

void *ConcurrentAllocator::allocate(size_t Size) {
  if (Cfg.GlobalLockBaseline) {
    auto Lock = lockBackend();
    return baselineAllocate(Size);
  }
  return allocateFrom(threadCache(), Size);
}

void *ConcurrentAllocator::allocateFrom(ThreadCache &Cache, size_t Size,
                                        ObjectRef *RefOut) {
  if (!sizeclass::fits(Size))
    return nullptr;
  if (Cfg.GlobalLockBaseline) {
    auto Lock = lockBackend();
    void *Ptr = baselineAllocate(Size);
    if (Ptr && RefOut)
      *RefOut = *Backend.findObject(Ptr);
    return Ptr;
  }

  const unsigned ClassIndex = sizeclass::classFor(Size);
  auto &Magazine = Cache.Magazines[ClassIndex];
  for (;;) {
    if (Magazine.empty())
      refill(Cache, ClassIndex);
    const ThreadCache::CachedSlot Slot = Magazine.back();
    Magazine.pop_back();
    Miniheap &Mini = *Slot.Heap;
    SlotMetadata &Meta = Mini.slot(Slot.Ref.SlotIndex);
    uint8_t *Ptr = Mini.slotPointer(Slot.Ref.SlotIndex);

    // DieFast §3.3 at hand-out: the check runs on the exact slot being
    // returned, lock-free — the slot is reserved, so this thread owns
    // its bytes and metadata exclusively.
    if (Cfg.DieFastCanaries &&
        !canary_ops::prepareReusedSlot(HeapCanary, Meta, Ptr,
                                       Mini.objectSize(), Size,
                                       Cfg.ZeroFillAllocations,
                                       /*LegacyHotPath=*/false)) {
      // Bad-object isolation without the backend lock: the slot stays
      // reserved forever (it is simply never handed out or released), so
      // no bitmap or class counter needs touching.  Its pending-free bit
      // is still set from the free that canaried it, keeping stale frees
      // off the quarantined contents.
      Meta.Bad = true;
      signalError(ErrorSignalKind::CanaryCorruptOnAlloc, Slot.Ref);
      continue;
    }

    // Commit, stamped from the front-end clock.  Mirrors
    // DieHardHeap::commitAllocation, written directly because the
    // backend clock is only re-synced under the lock.
    const uint64_t Id = Clock.fetch_add(1, std::memory_order_relaxed) + 1;
    Meta.ObjectId = Id;
    Meta.FreeTime = 0;
    Meta.AllocSite = Context ? Context->currentSite() : 0;
    Meta.FreeSite = 0;
    Meta.RequestedSize = static_cast<uint32_t>(Size);
    Meta.FrontPad = 0;
    Meta.Canaried = false;
    // The slot is live again: re-arm its pending-free bit so the next
    // free can claim it.  Sequenced before the pointer escapes to the
    // program, so any thread that can free it observes the clear.
    Mini.clearPendingFree(Slot.Ref.SlotIndex);

    Cache.Allocations.fetch_add(1, std::memory_order_relaxed);
    Cache.BytesRequested.fetch_add(Size, std::memory_order_relaxed);
    if (RefOut)
      *RefOut = Slot.Ref;
    return Ptr;
  }
}

void ConcurrentAllocator::refill(ThreadCache &Cache, unsigned ClassIndex) {
  auto Lock = lockBackend();
  // Flush before drawing: every free this thread made re-enters the
  // uniform lottery before it picks a new slot.  (This ordering is also
  // what makes MagazineSize == 1 bit-identical to the direct backend.)
  if (ThreadCache *Own = ownCache())
    flushFreesLocked(*Own);
  auto &Magazine = Cache.Magazines[ClassIndex];
  while (Magazine.size() < Cfg.MagazineSize) {
    Miniheap *Mini = nullptr;
    const ObjectRef Ref = Backend.reserveSlot(ClassIndex, &Mini);
    Magazine.push_back(ThreadCache::CachedSlot{Ref, Mini});
  }
}

void *ConcurrentAllocator::baselineAllocate(size_t Size) {
  if (!sizeclass::fits(Size))
    return nullptr;
  Backend.tickAllocationClock(Size);
  Clock.fetch_add(1, std::memory_order_relaxed);
  const unsigned ClassIndex = sizeclass::classFor(Size);
  for (;;) {
    Miniheap *Mini = nullptr;
    const ObjectRef Ref = Backend.reserveSlot(ClassIndex, &Mini);
    uint8_t *Ptr = Mini->slotPointer(Ref.SlotIndex);
    if (Cfg.DieFastCanaries &&
        !canary_ops::prepareReusedSlot(HeapCanary, Mini->slot(Ref.SlotIndex),
                                       Ptr, Mini->objectSize(), Size,
                                       Cfg.ZeroFillAllocations,
                                       /*LegacyHotPath=*/false)) {
      Backend.markBad(Ref);
      signalError(ErrorSignalKind::CanaryCorruptOnAlloc, Ref);
      continue;
    }
    Backend.commitAllocation(Ref, Size);
    return Ptr;
  }
}

//===----------------------------------------------------------------------===//
// Deallocation
//===----------------------------------------------------------------------===//

void ConcurrentAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  if (Cfg.GlobalLockBaseline) {
    auto Lock = lockBackend();
    baselineDeallocate(Ptr);
    return;
  }

  // Lock-free: resolve through the page directory, claim, fill, batch.
  const auto Resolved = Backend.resolvePointer(Ptr);
  if (!Resolved || static_cast<uint8_t *>(Ptr) != Resolved->SlotStart) {
    // Outside the heap or mid-object: invalid free, counted and ignored
    // (Table 1).
    RemoteInvalidFrees.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Miniheap &Mini = *Resolved->Heap;
  const size_t Slot = Resolved->Ref.SlotIndex;
  if (!Mini.claimPendingFree(Slot)) {
    // The slot is already on its way to (or through) the free pool: a
    // double free, detected without the lock and without touching the
    // slot's memory.
    RemoteDoubleFrees.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // This claim owns the slot until the batch flushes.  Stamp the free
  // site now (it belongs to this thread's context) and lay down the
  // canary here, outside the lock: the slot stays allocated in the
  // bitmap until the flush, so no sweep or draw reads it meanwhile.
  // FreeTime is stamped at the flush, from the re-synced clock.
  Mini.slot(Slot).FreeSite = Context ? Context->currentSite() : 0;
  ThreadCache &Cache = threadCache();
  if (Cfg.DieFastCanaries)
    canary_ops::canaryFillFreedSlot(Mini, HeapCanary, Cache.CanaryRng,
                                    Cfg.CanaryFillProbability, Slot);
  Cache.Frees.push_back(ThreadCache::CachedSlot{Resolved->Ref, &Mini});
  Cache.BufferedFrees.store(Cache.Frees.size(), std::memory_order_relaxed);
  if (Cache.Frees.size() >= 2 * Cfg.MagazineSize) {
    auto Lock = lockBackend();
    flushFreesLocked(Cache);
  }
}

void ConcurrentAllocator::baselineDeallocate(void *Ptr) {
  ObjectRef Ref;
  if (!Backend.deallocateWithRef(Ptr, Ref))
    return; // Invalid or double free: counted and ignored (Table 1).
  if (!Cfg.DieFastCanaries)
    return;
  Miniheap &Mini = Backend.miniheap(Ref);
  canary_ops::sweepFreedNeighbors(
      Mini, HeapCanary, Ref, [&](const ObjectRef &Corrupt) {
        Backend.quarantine(Corrupt);
        signalError(ErrorSignalKind::CanaryCorruptOnFree, Corrupt);
      });
  canary_ops::canaryFillFreedSlot(Mini, HeapCanary, CanaryRng,
                                  Cfg.CanaryFillProbability, Ref.SlotIndex);
}

void ConcurrentAllocator::flushFreesLocked(ThreadCache &Cache) {
  for (const ThreadCache::CachedSlot &Freed : Cache.Frees) {
    Miniheap &Mini = *Freed.Heap;
    // The free site was stamped by the freeing thread; deallocateIn
    // would otherwise sample the flushing thread's context.
    const SiteId Site = Mini.slot(Freed.Ref.SlotIndex).FreeSite;
    [[maybe_unused]] const bool Returned =
        Backend.deallocateResolved(Freed.Ref, Site);
    assert(Returned && "pending-free claim is exclusive; a flush cannot "
                       "double-free");
    if (Cfg.DieFastCanaries)
      canary_ops::sweepFreedNeighbors(
          Mini, HeapCanary, Freed.Ref, [&](const ObjectRef &Corrupt) {
            Backend.quarantine(Corrupt);
            signalError(ErrorSignalKind::CanaryCorruptOnFree, Corrupt);
          });
  }
  Cache.Frees.clear();
  Cache.BufferedFrees.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Flush, stats, errors
//===----------------------------------------------------------------------===//

void ConcurrentAllocator::flushCacheLocked(ThreadCache &Cache) {
  flushFreesLocked(Cache);
  for (auto &Magazine : Cache.Magazines) {
    for (const ThreadCache::CachedSlot &Slot : Magazine)
      Backend.releaseReserved(Slot.Ref);
    Magazine.clear();
  }
}

void ConcurrentAllocator::flushCache(ThreadCache &Cache) {
  auto Lock = lockBackend();
  if (ThreadCache *Own = ownCache())
    flushFreesLocked(*Own);
  flushCacheLocked(Cache);
}

void ConcurrentAllocator::flushAll() {
  std::lock_guard<std::mutex> Caches(CacheLock);
  auto Lock = lockBackend();
  for (auto &Cache : AllCaches)
    flushCacheLocked(*Cache);
}

const AllocatorStats &ConcurrentAllocator::stats() const {
  std::lock_guard<std::mutex> Caches(CacheLock);
  std::lock_guard<std::mutex> Lock(BackendLock);
  AllocatorStats S = Backend.stats();
  S.InvalidFrees += RemoteInvalidFrees.load(std::memory_order_relaxed);
  S.DoubleFrees += RemoteDoubleFrees.load(std::memory_order_relaxed);
  for (const auto &Cache : AllCaches) {
    S.Allocations += Cache->Allocations.load(std::memory_order_relaxed);
    S.BytesRequested += Cache->BytesRequested.load(std::memory_order_relaxed);
  }
  Aggregated = S;
  return Aggregated;
}

uint64_t ConcurrentAllocator::pendingRemoteFrees() const {
  std::lock_guard<std::mutex> Caches(CacheLock);
  uint64_t N = 0;
  for (const auto &Cache : AllCaches)
    N += Cache->BufferedFrees.load(std::memory_order_relaxed);
  return N;
}

void ConcurrentAllocator::signalError(ErrorSignalKind Kind,
                                      const ObjectRef &Where) {
  ErrorsSignalled.fetch_add(1, std::memory_order_relaxed);
  if (OnError)
    OnError(ErrorSignal{Kind, Where,
                        Clock.load(std::memory_order_relaxed)});
}

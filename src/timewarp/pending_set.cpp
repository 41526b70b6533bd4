// PendingEventSet implementations (see pending_set.hpp for the contract):
//
//  * MultisetPendingSet — the original pool-backed std::multiset with a
//    boundary iterator; the correctness reference.
//  * SplitPendingSet<Backend> — shared shape for the tuned structures: the
//    processed run lives in a sorted deque (advance appends, fossil pops the
//    front, rollback moves the suffix back), the unprocessed events live in
//    a backend ordered structure. Backends: SkipListSet (slab-backed nodes,
//    deterministic tower heights) and LadderSet (contiguous buckets, O(1)
//    amortised insert/dequeue).
//
// Both backends are templates over the comparator so the same structures
// serve the input queues (InputOrder) and the sequential kernel's central
// event list (SeqOrder). Determinism note: equal-comparing events are
// inserted in arrival order (multiset upper_bound semantics) everywhere,
// and live input-queue events never compare equal under InputOrder, so the
// realised total order is identical across implementations.
#include "otw/tw/pending_set.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <new>
#include <set>

#include "otw/util/assert.hpp"

namespace otw::tw {

const char* to_string(QueueKind kind) noexcept {
  switch (kind) {
    case QueueKind::Multiset:
      return "multiset";
    case QueueKind::SkipList:
      return "skiplist";
    case QueueKind::LadderQueue:
      return "ladder";
  }
  return "unknown";
}

namespace {

/// Sentinel event occupying exactly the given position.
Event at_position(const Position& pos) noexcept {
  Event s;
  s.recv_time = pos.key.recv_time;
  s.sender = pos.key.sender;
  s.seq = pos.key.seq;
  s.instance = pos.instance;
  return s;
}

// ---------------------------------------------------------------------------
// Multiset (reference)
// ---------------------------------------------------------------------------

class MultisetPendingSet final : public PendingEventSet {
 public:
  explicit MultisetPendingSet(SlabPool* pool)
      : events_(InputOrder{}, PoolAllocator<Event>(pool)), next_(events_.end()) {}

  [[nodiscard]] QueueKind kind() const noexcept override {
    return QueueKind::Multiset;
  }

  bool insert(const Event& event) override {
    OTW_REQUIRE_MSG(!event.negative,
                    "anti-messages are never stored in the input queue");
    const bool straggler =
        next_ != events_.begin() && InputOrder{}(event, *std::prev(next_));
    const auto pos = events_.insert(event);
    if (!straggler && (next_ == events_.end() || InputOrder{}(*pos, *next_))) {
      next_ = pos;
    }
    return straggler;
  }

  [[nodiscard]] const Event* peek_next() const override {
    return next_ == events_.end() ? nullptr : &*next_;
  }

  const Event& advance() override {
    OTW_ASSERT(next_ != events_.end());
    const Event& event = *next_;
    ++next_;
    return event;
  }

  void rewind_to_after(const Position& checkpoint) override {
    next_ = events_.upper_bound(at_position(checkpoint));
  }

  [[nodiscard]] std::size_t processed_after(const Position& pos) const override {
    // Walk back from the boundary: the first unprocessed event may itself
    // order at or before `pos` (then nothing processed lies after it).
    std::size_t n = 0;
    for (auto it = next_; it != events_.begin();) {
      --it;
      if (!(pos < it->position())) {
        break;
      }
      ++n;
    }
    return n;
  }

  [[nodiscard]] MatchStatus find_match(const Event& anti) const override {
    const auto it = events_.find(anti);
    if (it == events_.end()) {
      return MatchStatus::NotFound;
    }
    OTW_ASSERT(it->matches_instance(anti));
    return is_processed(it) ? MatchStatus::Processed : MatchStatus::Unprocessed;
  }

  void erase_match(const Event& anti) override {
    const auto it = events_.find(anti);
    OTW_REQUIRE_MSG(it != events_.end(), "anti-message with no matching positive");
    OTW_REQUIRE_MSG(!is_processed(it),
                    "matching positive still processed; rollback must precede erase");
    if (it == next_) {
      next_ = events_.erase(it);
    } else {
      events_.erase(it);
    }
  }

  std::size_t fossil_collect_before(const Position& pos) override {
    std::size_t dropped = 0;
    auto it = events_.begin();
    while (it != next_ && it->position() < pos) {
      it = events_.erase(it);
      ++dropped;
    }
    return dropped;
  }

  [[nodiscard]] std::size_t size() const noexcept override {
    return events_.size();
  }

  [[nodiscard]] std::size_t processed_count() const noexcept override {
    return static_cast<std::size_t>(
        std::distance(events_.begin(), Set::const_iterator(next_)));
  }

  [[nodiscard]] std::vector<Event> snapshot() const override {
    return std::vector<Event>(events_.begin(), events_.end());
  }

 private:
  using Set = std::multiset<Event, InputOrder, PoolAllocator<Event>>;

  [[nodiscard]] bool is_processed(Set::const_iterator it) const {
    if (next_ == events_.end()) {
      return true;
    }
    return InputOrder{}(*it, *next_);
  }

  Set events_;
  Set::iterator next_;  // first unprocessed event
};

// ---------------------------------------------------------------------------
// Skip list backend
// ---------------------------------------------------------------------------

/// Ordered set of events on slab-backed skip-list nodes. Tower heights come
/// from a per-instance xorshift64 stream, so a given insertion sequence
/// always builds the same structure (replayable, digest-neutral). Nodes are
/// allocated at exactly sizeof(Node) + height pointers and recycled through
/// the SlabPool's power-of-two classes.
template <class Compare>
class SkipListSet {
 public:
  static constexpr std::uint32_t kMaxHeight = 16;

  explicit SkipListSet(SlabPool* pool) : pool_(pool) {
    std::fill(std::begin(head_), std::end(head_), nullptr);
  }
  SkipListSet(const SkipListSet&) = delete;
  SkipListSet& operator=(const SkipListSet&) = delete;
  ~SkipListSet() {
    Node* node = head_[0];
    while (node != nullptr) {
      Node* next = node->next()[0];
      free_node(node);
      node = next;
    }
  }

  void insert(const Event& event) {
    Node* preds[kMaxHeight];
    walk</*kUpper=*/true>(event, preds);
    const std::uint32_t h = random_height();
    Node* node = alloc_node(event, h);
    if (h > height_) {
      for (std::uint32_t i = height_; i < h; ++i) {
        preds[i] = nullptr;
      }
      height_ = h;
    }
    for (std::uint32_t i = 0; i < h; ++i) {
      Node*& slot = next_slot(preds[i], i);
      node->next()[i] = slot;
      slot = node;
    }
    ++size_;
  }

  [[nodiscard]] const Event* peek_min() const noexcept {
    return head_[0] == nullptr ? nullptr : &head_[0]->event;
  }

  Event pop_min() {
    Node* node = head_[0];
    OTW_ASSERT(node != nullptr);
    // The global minimum is the first node of every level it reaches.
    for (std::uint32_t i = 0; i < node->height; ++i) {
      OTW_ASSERT(head_[i] == node);
      head_[i] = node->next()[i];
    }
    Event event = node->event;
    free_node(node);
    --size_;
    return event;
  }

  [[nodiscard]] const Event* find(const Event& probe) const {
    Node* preds[kMaxHeight];
    walk</*kUpper=*/false>(probe, preds);
    const Node* cand = preds[0] == nullptr ? head_[0] : preds[0]->next()[0];
    if (cand != nullptr && !comp_(probe, cand->event)) {
      return &cand->event;
    }
    return nullptr;
  }

  /// Erases the (unique) event comparing equivalent to `probe`. Returns
  /// false when there is none.
  bool erase(const Event& probe) {
    Node* preds[kMaxHeight];
    walk</*kUpper=*/false>(probe, preds);
    Node* cand = preds[0] == nullptr ? head_[0] : preds[0]->next()[0];
    if (cand == nullptr || comp_(probe, cand->event)) {
      return false;
    }
    for (std::uint32_t i = 0; i < cand->height; ++i) {
      Node*& slot = next_slot(preds[i], i);
      OTW_ASSERT(slot == cand);
      slot = cand->next()[i];
    }
    free_node(cand);
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Node* node = head_[0]; node != nullptr; node = node->next()[0]) {
      fn(node->event);
    }
  }

 private:
  struct Node {
    Event event;
    std::uint32_t height;

    /// Tower pointers live immediately past the struct (the node is
    /// allocated with room for exactly `height` of them).
    [[nodiscard]] Node** next() noexcept {
      return reinterpret_cast<Node**>(reinterpret_cast<std::byte*>(this) +
                                      sizeof(Node));
    }
    [[nodiscard]] Node* const* next() const noexcept {
      return reinterpret_cast<Node* const*>(
          reinterpret_cast<const std::byte*>(this) + sizeof(Node));
    }
  };
  static_assert(sizeof(Node) % alignof(Node*) == 0);

  [[nodiscard]] static std::size_t node_bytes(std::uint32_t height) noexcept {
    return sizeof(Node) + height * sizeof(Node*);
  }

  Node* alloc_node(const Event& event, std::uint32_t height) {
    const std::size_t bytes = node_bytes(height);
    void* mem = pool_ != nullptr ? pool_->allocate(bytes) : ::operator new(bytes);
    return ::new (mem) Node{event, height};
  }

  void free_node(Node* node) noexcept {
    const std::size_t bytes = node_bytes(node->height);
    node->~Node();
    if (pool_ != nullptr) {
      pool_->deallocate(node, bytes);
    } else {
      ::operator delete(node);
    }
  }

  [[nodiscard]] Node*& next_slot(Node* pred, std::uint32_t level) noexcept {
    return pred == nullptr ? head_[level] : pred->next()[level];
  }

  /// Fills preds[i] with the last node at level i ordered before `probe`
  /// (kUpper: at or before — multiset upper_bound insertion among equals),
  /// nullptr meaning the head. Levels >= height_ are left untouched.
  template <bool kUpper>
  void walk(const Event& probe, Node** preds) const {
    Node* pred = nullptr;
    for (std::uint32_t i = height_; i-- > 0;) {
      Node* cur = pred == nullptr ? head_[i] : pred->next()[i];
      while (cur != nullptr &&
             (kUpper ? !comp_(probe, cur->event) : comp_(cur->event, probe))) {
        pred = cur;
        cur = pred->next()[i];
      }
      preds[i] = pred;
    }
  }

  [[nodiscard]] std::uint32_t random_height() noexcept {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    std::uint64_t bits = rng_;
    std::uint32_t h = 1;
    while ((bits & 1u) != 0 && h < kMaxHeight) {
      ++h;
      bits >>= 1;
    }
    return h;
  }

  SlabPool* pool_;
  Node* head_[kMaxHeight];
  std::uint32_t height_ = 1;
  std::size_t size_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  [[no_unique_address]] Compare comp_{};
};

// ---------------------------------------------------------------------------
// Ladder queue backend
// ---------------------------------------------------------------------------

/// Tang/Tham ladder queue over contiguous storage (no per-event nodes):
/// an unsorted `top` catches far-future inserts, bucketed `rungs` refine
/// time bands, and a sorted `bottom` (descending, minimum at back) serves
/// dequeues. Buckets only ever migrate downward — top spreads into the
/// first rung, an oversized bucket spawns a finer rung, and small buckets
/// sort into bottom — so region boundaries are monotone and an event's
/// receive time always identifies its region.
template <class Compare>
class LadderSet {
 public:
  /// Buckets at most this large sort straight into bottom instead of
  /// spawning a finer rung.
  static constexpr std::size_t kSpawnThreshold = 64;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kMaxBucketsPerRung = std::size_t{1} << 14;

  explicit LadderSet(SlabPool* /*pool*/) {}
  LadderSet(const LadderSet&) = delete;
  LadderSet& operator=(const LadderSet&) = delete;

  void insert(const Event& event) {
    const std::uint64_t ts = event.recv_time.ticks();
    if (ts >= top_start_) {
      top_.push_back(event);
      top_min_ = std::min(top_min_, ts);
      top_max_ = std::max(top_max_, ts);
    } else if (Rung* rung = rung_for(ts)) {
      place(*rung, event);
    } else {
      // Below every active region: sorted insert into bottom. Descending
      // lower_bound == ascending upper_bound, i.e. arrival order among
      // equals, matching the multiset.
      const auto it = std::lower_bound(bottom_.begin(), bottom_.end(), event,
                                       DescOrder{comp_});
      bottom_.insert(it, event);
      maybe_reladder_bottom();
    }
    ++size_;
  }

  /// May sort the next bucket into bottom (observable state is unchanged).
  [[nodiscard]] const Event* peek_min() {
    prepare_bottom();
    return bottom_.empty() ? nullptr : &bottom_.back();
  }

  Event pop_min() {
    prepare_bottom();
    OTW_ASSERT(!bottom_.empty());
    Event event = bottom_.back();
    bottom_.pop_back();
    --size_;
    reset_when_empty();
    return event;
  }

  [[nodiscard]] const Event* find(const Event& probe) const {
    const auto [first, last] =
        std::equal_range(bottom_.begin(), bottom_.end(), probe, DescOrder{comp_});
    if (first != last) {
      return &*first;
    }
    const std::uint64_t ts = probe.recv_time.ticks();
    for (const Rung& rung : rungs_) {
      if (ts < rung.start || ts >= rung.end()) {
        continue;
      }
      for (const Event& event : rung.buckets[rung.index_of(ts)]) {
        if (equivalent(event, probe)) {
          return &event;
        }
      }
    }
    if (!top_.empty() && ts >= top_start_) {
      for (const Event& event : top_) {
        if (equivalent(event, probe)) {
          return &event;
        }
      }
    }
    return nullptr;
  }

  bool erase(const Event& probe) {
    const auto [first, last] =
        std::equal_range(bottom_.begin(), bottom_.end(), probe, DescOrder{comp_});
    if (first != last) {
      bottom_.erase(first);
      --size_;
      reset_when_empty();
      return true;
    }
    const std::uint64_t ts = probe.recv_time.ticks();
    for (Rung& rung : rungs_) {
      if (ts < rung.start || ts >= rung.end()) {
        continue;
      }
      auto& bucket = rung.buckets[rung.index_of(ts)];
      for (auto it = bucket.begin(); it != bucket.end(); ++it) {
        if (equivalent(*it, probe)) {
          bucket.erase(it);
          --rung.count;
          --size_;
          reset_when_empty();
          return true;
        }
      }
    }
    for (auto it = top_.begin(); it != top_.end(); ++it) {
      if (equivalent(*it, probe)) {
        // top_min_/top_max_ may now overestimate the span; that only makes
        // the next spread a little wider, never incorrect.
        top_.erase(it);
        --size_;
        reset_when_empty();
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Event& event : bottom_) {
      fn(event);
    }
    for (const Rung& rung : rungs_) {
      for (const auto& bucket : rung.buckets) {
        for (const Event& event : bucket) {
          fn(event);
        }
      }
    }
    for (const Event& event : top_) {
      fn(event);
    }
  }

 private:
  struct DescOrder {
    Compare comp;
    bool operator()(const Event& a, const Event& b) const noexcept {
      return comp(b, a);
    }
  };

  struct Rung {
    std::uint64_t start = 0;  ///< lower time edge of bucket 0
    std::uint64_t width = 1;  ///< bucket width in ticks (>= 1)
    /// Exclusive upper edge of the region this rung covers. Stored, not
    /// derived from width * buckets.size(): when the bucket count is clamped
    /// to kMaxBucketsPerRung the last bucket absorbs the tail of the span
    /// (index_of saturates), so the derived product would under-report the
    /// region and find/erase would skip tail events.
    std::uint64_t limit = 0;
    std::size_t cur = 0;    ///< first bucket not yet spilled
    std::size_t count = 0;  ///< events across buckets[cur..]
    std::vector<std::vector<Event>> buckets;

    [[nodiscard]] std::uint64_t cur_start() const noexcept {
      return sat_add(start, sat_mul(width, cur));
    }
    [[nodiscard]] std::uint64_t end() const noexcept { return limit; }
    [[nodiscard]] std::size_t index_of(std::uint64_t ts) const noexcept {
      return std::min<std::size_t>(static_cast<std::size_t>((ts - start) / width),
                                   buckets.size() - 1);
    }
  };

  [[nodiscard]] static std::uint64_t sat_add(std::uint64_t a,
                                             std::uint64_t b) noexcept {
    const std::uint64_t s = a + b;
    return s < a ? UINT64_MAX : s;
  }
  [[nodiscard]] static std::uint64_t sat_mul(std::uint64_t a,
                                             std::uint64_t b) noexcept {
    if (b != 0 && a > UINT64_MAX / b) {
      return UINT64_MAX;
    }
    return a * b;
  }

  [[nodiscard]] bool equivalent(const Event& a, const Event& b) const noexcept {
    return !comp_(a, b) && !comp_(b, a);
  }

  /// The rung whose active region [cur_start, end) contains ts, finest
  /// first. Regions are pairwise disjoint (cur advances before any spill),
  /// so at most one rung matches.
  [[nodiscard]] Rung* rung_for(std::uint64_t ts) noexcept {
    for (std::size_t i = rungs_.size(); i-- > 0;) {
      Rung& rung = rungs_[i];
      // An exhausted rung (every bucket spilled, not yet popped by
      // prepare_bottom) covers nothing, even though width * cur can still
      // sit below its clamped limit.
      if (rung.cur >= rung.buckets.size()) {
        continue;
      }
      if (ts >= rung.cur_start() && ts < rung.end()) {
        return &rung;
      }
    }
    return nullptr;
  }

  void place(Rung& rung, const Event& event) {
    const std::size_t idx = rung.index_of(event.recv_time.ticks());
    OTW_ASSERT(idx >= rung.cur);
    rung.buckets[idx].push_back(event);
    ++rung.count;
  }

  /// Refills bottom from the finest rung (or from top) until it holds the
  /// current minimum band, spawning finer rungs for oversized buckets.
  void prepare_bottom() {
    while (bottom_.empty()) {
      if (rungs_.empty()) {
        if (top_.empty()) {
          return;
        }
        spread_top();
        continue;
      }
      Rung& rung = rungs_.back();
      while (rung.cur < rung.buckets.size() && rung.buckets[rung.cur].empty()) {
        ++rung.cur;
      }
      if (rung.cur >= rung.buckets.size()) {
        OTW_ASSERT(rung.count == 0);
        rungs_.pop_back();
        continue;
      }
      std::vector<Event> bucket = std::move(rung.buckets[rung.cur]);
      rung.buckets[rung.cur].clear();
      const std::uint64_t bucket_start = rung.cur_start();
      // The clamped last bucket covers the whole remaining region, not just
      // one width (see Rung::limit).
      const bool is_last = rung.cur + 1 == rung.buckets.size();
      const std::uint64_t bucket_span =
          is_last ? rung.end() - bucket_start : rung.width;
      ++rung.cur;  // advance before spawning/spilling: regions stay disjoint
      rung.count -= bucket.size();
      if (bucket.size() > kSpawnThreshold && bucket_span > 1 &&
          rungs_.size() < kMaxRungs) {
        spawn_rung(std::move(bucket), bucket_start, bucket_span);
      } else {
        sort_into_bottom(std::move(bucket));
      }
    }
  }

  /// Bottom is meant for the current minimum band, where O(band) sorted
  /// inserts are cheap. Sustained insertion below every active region (the
  /// ladder drained dry mid-run, or a deep rollback reinserting history)
  /// would grow it quadratic, so an oversized bottom is converted into a
  /// new finest rung. The rung must span all the way up to the next active
  /// region, not just the band it holds: the region chain has to stay
  /// contiguous so every future below-region insert lands in THIS rung —
  /// a gap would collect events in bottom above the rung, and peek_min
  /// trusts a non-empty bottom to be the minimum band.
  void maybe_reladder_bottom() {
    if (bottom_.size() <= 2 * kSpawnThreshold || rungs_.size() >= kMaxRungs) {
      return;
    }
    std::uint64_t next_start = top_start_;
    for (std::size_t i = rungs_.size(); i-- > 0;) {
      if (rungs_[i].cur < rungs_[i].buckets.size()) {  // skip spent husks
        next_start = rungs_[i].cur_start();
        break;
      }
    }
    const std::uint64_t lo = bottom_.back().recv_time.ticks();
    OTW_ASSERT(bottom_.front().recv_time.ticks() < next_start);
    std::vector<Event> band = std::move(bottom_);
    bottom_.clear();
    spawn_rung(std::move(band), lo, next_start - lo);
  }

  /// An empty ladder constrains nothing: drop exhausted rung husks and
  /// reopen the top for ALL times, so a refill goes through the O(1) top
  /// path instead of sorted-inserting into bottom forever.
  void reset_when_empty() {
    if (size_ != 0) {
      return;
    }
    rungs_.clear();
    top_start_ = 0;
    top_min_ = UINT64_MAX;
    top_max_ = 0;
  }

  void sort_into_bottom(std::vector<Event>&& bucket) {
    OTW_ASSERT(bottom_.empty());
    bottom_ = std::move(bucket);
    std::sort(bottom_.begin(), bottom_.end(), DescOrder{comp_});
  }

  void spawn_rung(std::vector<Event>&& bucket, std::uint64_t start,
                  std::uint64_t span) {
    Rung rung;
    rung.start = start;
    rung.limit = sat_add(start, span);
    rung.width = std::max<std::uint64_t>(
        1, span / std::min<std::uint64_t>(bucket.size(), kMaxBucketsPerRung));
    const std::uint64_t nb = (span + rung.width - 1) / rung.width;
    rung.buckets.assign(
        static_cast<std::size_t>(
            std::clamp<std::uint64_t>(nb, 1, kMaxBucketsPerRung + 1)),
        {});
    rungs_.push_back(std::move(rung));
    Rung& back = rungs_.back();
    for (const Event& event : bucket) {
      place(back, event);
    }
  }

  void spread_top() {
    OTW_ASSERT(!top_.empty() && rungs_.empty());
    const std::uint64_t new_start = sat_add(top_max_, 1);
    if (top_.size() <= kSpawnThreshold || top_min_ == top_max_) {
      sort_into_bottom(std::move(top_));
    } else {
      spawn_rung(std::move(top_), top_min_, top_max_ - top_min_ + 1);
    }
    top_.clear();
    top_start_ = new_start;
    top_min_ = UINT64_MAX;
    top_max_ = 0;
  }

  std::vector<Event> bottom_;  ///< sorted descending; minimum at back()
  std::vector<Rung> rungs_;    ///< [0] coarsest .. back() finest
  std::vector<Event> top_;     ///< unsorted region [top_start_, inf)
  std::uint64_t top_start_ = 0;
  std::uint64_t top_min_ = UINT64_MAX;
  std::uint64_t top_max_ = 0;
  std::size_t size_ = 0;
  [[no_unique_address]] Compare comp_{};
};

// ---------------------------------------------------------------------------
// Split pending set: sorted processed run + backend unprocessed set
// ---------------------------------------------------------------------------

template <class Backend, QueueKind Kind>
class SplitPendingSet final : public PendingEventSet {
 public:
  explicit SplitPendingSet(SlabPool* pool) : unprocessed_(pool) {}

  [[nodiscard]] QueueKind kind() const noexcept override { return Kind; }

  bool insert(const Event& event) override {
    OTW_REQUIRE_MSG(!event.negative,
                    "anti-messages are never stored in the input queue");
    if (!processed_.empty() && InputOrder{}(event, processed_.back())) {
      // Straggler: parked in the processed run; the rollback this return
      // value triggers rewinds it back into the unprocessed backend.
      const auto it = std::upper_bound(processed_.begin(), processed_.end(),
                                       event, InputOrder{});
      processed_.insert(it, event);
      return true;
    }
    unprocessed_.insert(event);
    return false;
  }

  [[nodiscard]] const Event* peek_next() const override {
    return unprocessed_.peek_min();
  }

  const Event& advance() override {
    processed_.push_back(unprocessed_.pop_min());
    return processed_.back();
  }

  void rewind_to_after(const Position& checkpoint) override {
    while (!processed_.empty() && checkpoint < processed_.back().position()) {
      unprocessed_.insert(processed_.back());
      processed_.pop_back();
    }
  }

  [[nodiscard]] std::size_t processed_after(const Position& pos) const override {
    const auto it = std::upper_bound(processed_.begin(), processed_.end(), pos,
                                     PositionBefore{});
    return static_cast<std::size_t>(processed_.end() - it);
  }

  [[nodiscard]] MatchStatus find_match(const Event& anti) const override {
    if (find_processed(anti) != nullptr) {
      return MatchStatus::Processed;
    }
    if (unprocessed_.find(anti) != nullptr) {
      return MatchStatus::Unprocessed;
    }
    return MatchStatus::NotFound;
  }

  void erase_match(const Event& anti) override {
    OTW_REQUIRE_MSG(find_processed(anti) == nullptr,
                    "matching positive still processed; rollback must precede erase");
    const bool erased = unprocessed_.erase(anti);
    OTW_REQUIRE_MSG(erased, "anti-message with no matching positive");
  }

  std::size_t fossil_collect_before(const Position& pos) override {
    std::size_t dropped = 0;
    while (!processed_.empty() && processed_.front().position() < pos) {
      processed_.pop_front();
      ++dropped;
    }
    return dropped;
  }

  [[nodiscard]] std::size_t size() const noexcept override {
    return processed_.size() + unprocessed_.size();
  }

  [[nodiscard]] std::size_t processed_count() const noexcept override {
    return processed_.size();
  }

  [[nodiscard]] std::vector<Event> snapshot() const override {
    std::vector<Event> out(processed_.begin(), processed_.end());
    out.reserve(size());
    unprocessed_.for_each([&out](const Event& event) { out.push_back(event); });
    return out;
  }

 private:
  struct PositionBefore {
    bool operator()(const Position& pos, const Event& event) const noexcept {
      return pos < event.position();
    }
  };

  [[nodiscard]] const Event* find_processed(const Event& anti) const {
    const auto it = std::lower_bound(processed_.begin(), processed_.end(), anti,
                                     InputOrder{});
    if (it != processed_.end() && !InputOrder{}(anti, *it)) {
      return &*it;
    }
    return nullptr;
  }

  std::deque<Event> processed_;  ///< InputOrder-sorted processed run
  /// mutable: the ladder's peek materialises its bottom band on demand.
  mutable Backend unprocessed_;
};

using SkipListPendingSet =
    SplitPendingSet<SkipListSet<InputOrder>, QueueKind::SkipList>;
using LadderPendingSet =
    SplitPendingSet<LadderSet<InputOrder>, QueueKind::LadderQueue>;

// ---------------------------------------------------------------------------
// Central event lists (sequential kernel)
// ---------------------------------------------------------------------------

class MultisetCentral final : public CentralEventList {
 public:
  explicit MultisetCentral(SlabPool* pool)
      : pending_(SeqOrder{}, PoolAllocator<Event>(pool)) {}

  void insert(const Event& event) override { pending_.insert(event); }
  [[nodiscard]] const Event* lowest() const override {
    return pending_.empty() ? nullptr : &*pending_.begin();
  }
  void pop_lowest() override { pending_.erase(pending_.begin()); }
  [[nodiscard]] std::size_t size() const noexcept override {
    return pending_.size();
  }

 private:
  std::multiset<Event, SeqOrder, PoolAllocator<Event>> pending_;
};

template <class Backend>
class BackendCentral final : public CentralEventList {
 public:
  explicit BackendCentral(SlabPool* pool) : backend_(pool) {}

  void insert(const Event& event) override { backend_.insert(event); }
  [[nodiscard]] const Event* lowest() const override {
    return backend_.peek_min();
  }
  void pop_lowest() override { (void)backend_.pop_min(); }
  [[nodiscard]] std::size_t size() const noexcept override {
    return backend_.size();
  }

 private:
  /// mutable: the ladder's peek materialises its bottom band on demand.
  mutable Backend backend_;
};

}  // namespace

std::unique_ptr<PendingEventSet> make_pending_set(QueueKind kind,
                                                  SlabPool* pool) {
  switch (kind) {
    case QueueKind::Multiset:
      return std::make_unique<MultisetPendingSet>(pool);
    case QueueKind::SkipList:
      return std::make_unique<SkipListPendingSet>(pool);
    case QueueKind::LadderQueue:
      return std::make_unique<LadderPendingSet>(pool);
  }
  OTW_REQUIRE_MSG(false, "unknown QueueKind");
  return nullptr;  // unreachable
}

std::unique_ptr<CentralEventList> make_central_event_list(QueueKind kind,
                                                          SlabPool* pool) {
  switch (kind) {
    case QueueKind::Multiset:
      return std::make_unique<MultisetCentral>(pool);
    case QueueKind::SkipList:
      return std::make_unique<BackendCentral<SkipListSet<SeqOrder>>>(pool);
    case QueueKind::LadderQueue:
      return std::make_unique<BackendCentral<LadderSet<SeqOrder>>>(pool);
  }
  OTW_REQUIRE_MSG(false, "unknown QueueKind");
  return nullptr;  // unreachable
}

}  // namespace otw::tw

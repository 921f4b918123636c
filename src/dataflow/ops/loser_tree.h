#ifndef PREGELIX_DATAFLOW_OPS_LOSER_TREE_H_
#define PREGELIX_DATAFLOW_OPS_LOSER_TREE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace pregelix {

/// Tournament loser tree: the dataflow layer's one k-way merge of key-sorted
/// cursors. The external sort merges its spilled runs with it, and the
/// receiver of the m-to-n partitioning merging connector merges its
/// senders' streams with it. `Cursor` provides `bool Valid()`,
/// `Status Next()` and `Slice field(int)`, all positioned before Init.
///
/// Keyed on the 8-byte normalized key prefix (NormalizedKeyPrefix in
/// slice.h): selecting the next tuple is O(log k) integer comparisons along
/// one root path, and the full Slice compare runs only on a prefix tie.
///
/// Tie rule: a leaf beats another iff its key is strictly smaller, or the
/// keys are equal and its cursor index is lower. Equal keys therefore leave
/// in cursor order, and each cursor's equal-key prefix drains before the
/// next cursor's: run order in the sort, sender order at a merging
/// receiver.
///
/// Layout: leaves are the k cursors padded to the next power of two `cap_`
/// with exhausted sentinels (-1, beaten by everything); tree_[1..cap_-1]
/// store the *loser* of the match played at that node, and the overall
/// winner is kept in winner_. Exhausting a cursor just turns its leaf into
/// a sentinel; no removal is needed.
template <class Cursor>
class LoserTree {
 public:
  LoserTree(std::vector<std::unique_ptr<Cursor>>& cursors, int key_field)
      : cursors_(cursors), key_field_(key_field) {}

  void Init() {
    const int k = static_cast<int>(cursors_.size());
    cap_ = 1;
    while (cap_ < k) cap_ <<= 1;
    norm_.assign(k, 0);
    for (int i = 0; i < k; ++i) Refresh(i);
    tree_.assign(cap_, -1);
    // One bottom-up replay: winners[p] is the winner of the subtree at p.
    std::vector<int> winners(2 * cap_, -1);
    for (int i = 0; i < k; ++i) {
      winners[cap_ + i] = cursors_[i]->Valid() ? i : -1;
    }
    for (int p = cap_ - 1; p >= 1; --p) {
      const int a = winners[2 * p];
      const int b = winners[2 * p + 1];
      if (Beats(b, a)) {
        winners[p] = b;
        tree_[p] = a;
      } else {
        winners[p] = a;
        tree_[p] = b;
      }
    }
    winner_ = winners[1];  // with cap_ == 1 this is leaf 0 itself
  }

  /// Cursor index holding the smallest key; -1 once every cursor is drained.
  int winner() const { return winner_; }
  /// The winner's cursor, positioned at the smallest key.
  Cursor& winner_cursor() const { return *cursors_[winner_]; }
  /// Cached normalized prefix of the winner's key.
  uint64_t winner_norm() const { return norm_[winner_]; }

  /// Consumes the winner's current tuple and replays its root path.
  Status AdvanceWinner() {
    const int i = winner_;
    PREGELIX_RETURN_NOT_OK(cursors_[i]->Next());
    Refresh(i);
    int contender = cursors_[i]->Valid() ? i : -1;
    for (int node = (cap_ + i) / 2; node >= 1; node /= 2) {
      if (Beats(tree_[node], contender)) std::swap(tree_[node], contender);
    }
    winner_ = contender;
    return Status::OK();
  }

 private:
  void Refresh(int i) {
    if (cursors_[i]->Valid()) {
      norm_[i] = NormalizedKeyPrefix(cursors_[i]->field(key_field_));
    }
  }

  /// Strictly-before in merge order; -1 marks an exhausted leaf.
  bool Beats(int a, int b) const {
    if (a < 0) return false;
    if (b < 0) return true;
    if (norm_[a] != norm_[b]) return norm_[a] < norm_[b];
    const int c = cursors_[a]->field(key_field_).compare(
        cursors_[b]->field(key_field_));
    if (c != 0) return c < 0;
    return a < b;
  }

  std::vector<std::unique_ptr<Cursor>>& cursors_;
  const int key_field_;
  int cap_ = 1;
  std::vector<int> tree_;
  std::vector<uint64_t> norm_;
  int winner_ = -1;
};

}  // namespace pregelix

#endif  // PREGELIX_DATAFLOW_OPS_LOSER_TREE_H_

// A rope: the document-state substrate.
//
// The paper (Section 3) keeps the current document text "as a rope, piece
// table, or similar structure to support efficient insertions and
// deletions". This implementation is a chunked B+-tree rope: leaves hold
// small UTF-8 chunks, internal nodes hold per-child (byte, char) totals, so
// insert/delete/read at an arbitrary *character* index costs O(log n).
//
// The tree grows two ways. Edits descend to a leaf (of at most 256 bytes)
// and split it at its byte midpoint when it overflows, so a tree built by
// edits holds leaves between half full and full. Rope(text), the cached-doc
// open path, builds bottom-up in one pass instead: it cuts the text into
// full leaves, each cut backed up to a scalar boundary (so a leaf holds
// 253-256 bytes, the last one the rest), then stacks levels of internal
// nodes with 16 children each (the last node of a level takes the rest).
// That costs one copy of the text plus a count per leaf, with no descent,
// split or cache update per chunk, and half the leaves of an edit-built
// tree. The first edit into a full leaf splits it as usual.
//
// Edits are heavily clustered in practice (typing runs, backspace runs), so
// the rope keeps two last-edit cache entries — one for the last insert
// point, one for the last delete point: the leaf last touched, its absolute
// character offset, and the root-to-leaf path. An edit that lands inside
// either cached leaf (and does not split, empty, or merge it) skips the
// descent and just patches the cached path's counts. Merges that alternate
// between an insert point and a distant delete point (the walker applying a
// concurrent insert run and delete run interleaved) therefore keep both
// hot, where a single entry would evict on every switch. Any structural
// change invalidates both entries.
//
// Nodes come from per-rope recycling pools (util/pool.h) with a small
// retention cap, so split/merge churn during replay reuses storage instead
// of hitting the global allocator, while a long-lived document retains at
// most a few cached nodes. Nodes are individually heap-allocated, so moves
// can transfer a tree between ropes; the receiving rope's pool frees it.
//
// Indexing is by Unicode scalar value, matching the index space of editing
// operations; storage is UTF-8 bytes, matching what is written to disk.
//
// All inputs must be valid UTF-8 (enforced with debug checks); the rope
// never splits a scalar value across a leaf boundary.

#ifndef EGWALKER_ROPE_ROPE_H_
#define EGWALKER_ROPE_ROPE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/pool.h"

namespace egwalker {

class Rope {
 public:
  Rope();
  // Builds the tree bottom-up from full leaves (see above).
  explicit Rope(std::string_view utf8);
  ~Rope();

  Rope(Rope&&) noexcept;
  Rope& operator=(Rope&&) noexcept;
  Rope(const Rope& other);
  Rope& operator=(const Rope& other);

  // Inserts UTF-8 `text` so its first scalar value lands at character index
  // `char_pos`. char_pos must be <= char_size().
  void InsertAt(size_t char_pos, std::string_view text);

  // Removes `char_count` scalar values starting at `char_pos`. The range
  // must lie within the document.
  void RemoveAt(size_t char_pos, size_t char_count);

  // Number of Unicode scalar values in the document.
  size_t char_size() const { return root_chars_; }

  // Number of UTF-8 bytes in the document.
  size_t byte_size() const { return root_bytes_; }

  bool empty() const { return root_chars_ == 0; }

  // Materialises the whole document.
  std::string ToString() const;

  // Materialises `char_count` scalar values starting at `char_pos`.
  std::string Substring(size_t char_pos, size_t char_count) const;

  // The scalar value at character index `char_pos` (must be < char_size()).
  uint32_t CharAt(size_t char_pos) const;

  // Invokes `fn(std::string_view chunk)` over the document's chunks in
  // order. Used by serialisation to avoid materialising the whole text.
  void ForEachChunk(void (*fn)(std::string_view, void*), void* ctx) const;

  // Removes everything.
  void Clear();

  // Internal consistency check (counts match recursively); used by tests.
  bool CheckInvariants() const;

  // Implementation detail: node types are forward-declared here (and public)
  // only so rope.cc's file-local helpers can name them; they are defined in
  // rope.cc and not part of the API.
  struct Node;
  struct Leaf;
  struct Internal;

 private:
  // One step of a root-to-leaf descent: an internal node and the child
  // index the descent took.
  struct PathStep {
    Internal* node;
    int child_idx;
  };

  Leaf* NewLeaf();
  Internal* NewInternal();
  void FreeLeaf(Leaf* l);
  void FreeInternal(Internal* in);
  void DeleteNode(Node* n);
  Node* CloneNode(const Node* n);

  // Inserts `text` (guaranteed to fit in a leaf after a possible split)
  // descending from the root, updating counts on the way down. Returns
  // nothing; splits are handled bottom-up through the path stack.
  void InsertChunk(size_t char_pos, std::string_view text);
  void RemoveOnce(size_t char_pos, size_t* char_count);
  // Splices `text` (`tchars` scalar values) into `leaf` at character offset
  // `pos` (must fit) and adds the deltas along `path` and the root totals.
  void ApplyLeafInsert(Leaf* leaf, size_t pos, std::string_view text, size_t tchars,
                       const std::vector<PathStep>& path);

  Node* root_ = nullptr;
  size_t root_bytes_ = 0;
  size_t root_chars_ = 0;

  // Last-edit cache entry: a leaf an insert/remove landed in, with its
  // absolute character start and the descent path (for count fixups).
  struct EditCache {
    bool valid = false;
    Leaf* leaf = nullptr;
    size_t leaf_start = 0;  // Character index of the leaf's first char.
    std::vector<PathStep> path;
  };
  // Two entries: [kInsCache] tracks the last insert point, [kDelCache] the
  // last delete point, so alternating insert/delete merges keep both warm.
  static constexpr int kInsCache = 0;
  static constexpr int kDelCache = 1;
  EditCache edit_caches_[2];
  void InvalidateEditCache() {
    edit_caches_[0].valid = false;
    edit_caches_[1].valid = false;
  }
  // Re-points cache `role` at `leaf` (descended via `path`).
  void SetEditCache(int role, Leaf* leaf, size_t leaf_start, const std::vector<PathStep>& path);
  // After a non-structural edit inside `edited` at char_pos (chars grew by
  // `delta`), fixes the other caches' absolute offsets.
  void ShiftOtherCaches(const Leaf* edited, size_t char_pos, ptrdiff_t delta);
  // Descent scratch, reused across edits so the hot path never allocates.
  std::vector<PathStep> path_scratch_;
  // Node recycling with a small retention cap (see util/pool.h): replay
  // churn reuses nodes, long-lived documents stay lean.
  FreePool<Leaf> leaf_pool_;
  FreePool<Internal> internal_pool_;
};

}  // namespace egwalker

#endif  // EGWALKER_ROPE_ROPE_H_

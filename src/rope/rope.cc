#include "rope/rope.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "rope/utf8.h"
#include "util/assert.h"

namespace egwalker {
namespace {

// Leaves hold up to this many UTF-8 bytes. Kept small enough that in-leaf
// scans are cheap and memmoves stay inside a cache line or two.
constexpr size_t kLeafCapacity = 256;
// Inserted text is chopped into chunks of at most this many bytes so a
// single leaf split always makes room: a split lands within 3 bytes of the
// byte midpoint (it backs down to a scalar-value boundary, and a scalar is
// at most 4 bytes), so the larger half holds at most kLeafCapacity/2 + 3
// bytes and must still fit a whole chunk. kLeafCapacity/2 alone overflows
// the leaf when multi-byte characters straddle the midpoint.
constexpr size_t kMaxChunk = kLeafCapacity / 2 - 4;
constexpr int kMaxChildren = 16;

}  // namespace

struct Rope::Node {
  explicit Node(bool leaf) : is_leaf(leaf) {}
  bool is_leaf;
};

struct Rope::Leaf : Rope::Node {
  Leaf() : Node(true) {}
  uint32_t nbytes = 0;
  uint32_t nchars = 0;
  char data[kLeafCapacity];

  std::string_view view() const { return std::string_view(data, nbytes); }
};

struct Rope::Internal : Rope::Node {
  Internal() : Node(false) {}
  struct Child {
    Node* node = nullptr;
    size_t bytes = 0;
    size_t chars = 0;
  };
  int count = 0;
  Child children[kMaxChildren];
};

namespace {

struct Metrics {
  size_t bytes = 0;
  size_t chars = 0;
};

Metrics MetricsOf(const Rope::Node* n);

}  // namespace

// Definitions needing complete types.
namespace {

Metrics MetricsOfLeaf(const Rope::Leaf* l) { return {l->nbytes, l->nchars}; }

Metrics MetricsOfInternal(const Rope::Internal* in) {
  Metrics m;
  for (int i = 0; i < in->count; ++i) {
    m.bytes += in->children[i].bytes;
    m.chars += in->children[i].chars;
  }
  return m;
}

Metrics MetricsOf(const Rope::Node* n) {
  if (n->is_leaf) {
    return MetricsOfLeaf(static_cast<const Rope::Leaf*>(n));
  }
  return MetricsOfInternal(static_cast<const Rope::Internal*>(n));
}

// Byte offset of char `pos` inside a leaf. All-ASCII leaves (the common
// case: nbytes == nchars) translate with no scan at all.
size_t LeafByteOfChar(const Rope::Leaf* l, size_t pos) {
  if (l->nbytes == l->nchars) {
    return pos;
  }
  return Utf8ByteOfChar(l->view(), pos);
}

// Byte offset of char `pos + count` given that char `pos` starts at byte
// `from`: resumes the scan there instead of from the leaf start.
size_t LeafByteOfCharAfter(const Rope::Leaf* l, size_t from, size_t count) {
  if (l->nbytes == l->nchars) {
    return from + count;
  }
  return from + Utf8ByteOfChar(std::string_view(l->data + from, l->nbytes - from), count);
}

// Retention caps: replay churn frees and reallocates nodes in small bursts
// (a merge here, a split there), so a few cached slots capture the
// recycling win while a long-lived document retains under 2 KiB — below
// the noise floor of the fig10 steady-state measurements.
constexpr size_t kMaxCachedLeaves = 4;
constexpr size_t kMaxCachedInternals = 2;

}  // namespace

Rope::Leaf* Rope::NewLeaf() { return leaf_pool_.New(); }
Rope::Internal* Rope::NewInternal() { return internal_pool_.New(); }
void Rope::FreeLeaf(Leaf* l) { leaf_pool_.Delete(l); }
void Rope::FreeInternal(Internal* in) { internal_pool_.Delete(in); }

void Rope::DeleteNode(Node* n) {
  if (n == nullptr) {
    return;
  }
  if (n->is_leaf) {
    FreeLeaf(static_cast<Leaf*>(n));
    return;
  }
  Internal* in = static_cast<Internal*>(n);
  for (int i = 0; i < in->count; ++i) {
    DeleteNode(in->children[i].node);
  }
  FreeInternal(in);
}

Rope::Node* Rope::CloneNode(const Node* n) {
  if (n->is_leaf) {
    const Leaf* l = static_cast<const Leaf*>(n);
    Leaf* copy = NewLeaf();
    *copy = *l;
    return copy;
  }
  const Internal* in = static_cast<const Internal*>(n);
  Internal* copy = NewInternal();
  copy->count = in->count;
  for (int i = 0; i < in->count; ++i) {
    copy->children[i] = in->children[i];
    copy->children[i].node = CloneNode(in->children[i].node);
  }
  return copy;
}

Rope::Rope() {
  leaf_pool_.set_max_cached(kMaxCachedLeaves);
  internal_pool_.set_max_cached(kMaxCachedInternals);
}

Rope::Rope(std::string_view utf8) : Rope() {
  EGW_DCHECK(Utf8IsValid(utf8));
  if (utf8.empty()) {
    return;
  }
  // Bottom-up: full leaves in text order, then whole levels of internals
  // over them, each taking the next kMaxChildren nodes of the level below.
  std::vector<Node*> level;
  level.reserve(utf8.size() / (kLeafCapacity - 3) + 1);
  size_t chars = 0;
  for (size_t offset = 0; offset < utf8.size();) {
    size_t take = std::min(kLeafCapacity, utf8.size() - offset);
    // Back up to a scalar-value boundary; a scalar is at most 4 bytes.
    for (int back = 0; back < 3 && offset + take < utf8.size() &&
                       !IsUtf8CharStart(static_cast<uint8_t>(utf8[offset + take]));
         ++back) {
      --take;
    }
    Leaf* leaf = NewLeaf();
    std::memcpy(leaf->data, utf8.data() + offset, take);
    leaf->nbytes = static_cast<uint32_t>(take);
    leaf->nchars = static_cast<uint32_t>(Utf8CountChars(leaf->view()));
    chars += leaf->nchars;
    level.push_back(leaf);
    offset += take;
  }
  while (level.size() > 1) {
    size_t parents = 0;
    for (size_t first = 0; first < level.size(); first += kMaxChildren) {
      Internal* in = NewInternal();
      in->count = static_cast<int>(std::min<size_t>(kMaxChildren, level.size() - first));
      for (int i = 0; i < in->count; ++i) {
        Node* child = level[first + static_cast<size_t>(i)];
        Metrics m = MetricsOf(child);
        in->children[i] = {child, m.bytes, m.chars};
      }
      level[parents++] = in;
    }
    level.resize(parents);
  }
  root_ = level[0];
  root_bytes_ = utf8.size();
  root_chars_ = chars;
}

Rope::~Rope() { DeleteNode(root_); }

Rope::Rope(Rope&& other) noexcept : Rope() {
  root_ = other.root_;
  root_bytes_ = other.root_bytes_;
  root_chars_ = other.root_chars_;
  other.root_ = nullptr;
  other.root_bytes_ = 0;
  other.root_chars_ = 0;
  other.InvalidateEditCache();
}

Rope& Rope::operator=(Rope&& other) noexcept {
  if (this != &other) {
    // Nodes are individually heap-allocated, so adopting another rope's
    // tree is safe: this rope's pool frees them later.
    DeleteNode(root_);
    root_ = other.root_;
    root_bytes_ = other.root_bytes_;
    root_chars_ = other.root_chars_;
    other.root_ = nullptr;
    other.root_bytes_ = 0;
    other.root_chars_ = 0;
    other.InvalidateEditCache();
    InvalidateEditCache();
  }
  return *this;
}

Rope::Rope(const Rope& other) : Rope() {
  root_ = other.root_ ? CloneNode(other.root_) : nullptr;
  root_bytes_ = other.root_bytes_;
  root_chars_ = other.root_chars_;
}

Rope& Rope::operator=(const Rope& other) {
  if (this != &other) {
    DeleteNode(root_);
    root_ = other.root_ ? CloneNode(other.root_) : nullptr;
    root_bytes_ = other.root_bytes_;
    root_chars_ = other.root_chars_;
    InvalidateEditCache();
  }
  return *this;
}

void Rope::Clear() {
  DeleteNode(root_);
  root_ = nullptr;
  root_bytes_ = 0;
  root_chars_ = 0;
  InvalidateEditCache();
}

void Rope::InsertAt(size_t char_pos, std::string_view text) {
  EGW_DCHECK(char_pos <= root_chars_);
  EGW_DCHECK(Utf8IsValid(text));
  size_t offset = 0;
  size_t inserted_chars = 0;
  while (offset < text.size()) {
    // Take at most kMaxChunk bytes, backing up to a scalar-value boundary.
    size_t take = std::min(kMaxChunk, text.size() - offset);
    while (take > 0 && offset + take < text.size() &&
           !IsUtf8CharStart(static_cast<uint8_t>(text[offset + take]))) {
      --take;
    }
    EGW_DCHECK(take > 0);
    std::string_view chunk = text.substr(offset, take);
    InsertChunk(char_pos + inserted_chars, chunk);
    inserted_chars += Utf8CountChars(chunk);
    offset += take;
  }
}

void Rope::ApplyLeafInsert(Leaf* leaf, size_t pos, std::string_view text, size_t tchars,
                           const std::vector<PathStep>& path) {
  EGW_DCHECK(pos <= leaf->nchars);
  EGW_DCHECK(tchars == Utf8CountChars(text));
  size_t byte_pos = LeafByteOfChar(leaf, pos);
  std::memmove(leaf->data + byte_pos + text.size(), leaf->data + byte_pos,
               leaf->nbytes - byte_pos);
  std::memcpy(leaf->data + byte_pos, text.data(), text.size());
  leaf->nbytes += static_cast<uint32_t>(text.size());
  leaf->nchars += static_cast<uint32_t>(tchars);
  for (const PathStep& step : path) {
    step.node->children[step.child_idx].bytes += text.size();
    step.node->children[step.child_idx].chars += tchars;
  }
  root_bytes_ += text.size();
  root_chars_ += tchars;
}

void Rope::SetEditCache(int role, Leaf* leaf, size_t leaf_start,
                        const std::vector<PathStep>& path) {
  EditCache& cache = edit_caches_[role];
  cache.valid = true;
  cache.leaf = leaf;
  cache.leaf_start = leaf_start;
  cache.path = path;
}

void Rope::ShiftOtherCaches(const Leaf* edited, size_t char_pos, ptrdiff_t delta) {
  for (EditCache& cache : edit_caches_) {
    if (cache.valid && cache.leaf != edited && cache.leaf_start >= char_pos) {
      // The cached leaf lies entirely after the edit point: its absolute
      // start shifts by the edit's character delta. (A cached leaf before
      // the edit point is unaffected; the edited leaf's own start never
      // moves for an in-leaf edit.)
      cache.leaf_start = static_cast<size_t>(static_cast<ptrdiff_t>(cache.leaf_start) + delta);
    }
  }
}

void Rope::InsertChunk(size_t char_pos, std::string_view text) {
  if (root_ == nullptr) {
    root_ = NewLeaf();
  }

  // Fast path: the edit lands inside a cached leaf and fits — patch the
  // leaf and add the deltas along the cached path, no descent. The insert
  // cache is tried first (typing runs), the delete cache second.
  for (int role : {kInsCache, kDelCache}) {
    EditCache& cache = edit_caches_[role];
    if (cache.valid && char_pos >= cache.leaf_start &&
        char_pos <= cache.leaf_start + cache.leaf->nchars &&
        cache.leaf->nbytes + text.size() <= kLeafCapacity) {
      size_t tchars = Utf8CountChars(text);
      ApplyLeafInsert(cache.leaf, char_pos - cache.leaf_start, text, tchars, cache.path);
      ShiftOtherCaches(cache.leaf, char_pos, static_cast<ptrdiff_t>(tchars));
      if (role != kInsCache) {
        SetEditCache(kInsCache, cache.leaf, cache.leaf_start, cache.path);
      }
      return;
    }
  }

  // Descend to the leaf covering char_pos, recording the path.
  path_scratch_.clear();
  Node* n = root_;
  size_t pos = char_pos;
  while (!n->is_leaf) {
    Internal* in = static_cast<Internal*>(n);
    int i = 0;
    // Insertions at a boundary go into the left (earlier) child so appends
    // fill leaves fully before spilling into new ones.
    while (i + 1 < in->count && pos > in->children[i].chars) {
      pos -= in->children[i].chars;
      ++i;
    }
    path_scratch_.push_back({in, i});
    n = in->children[i].node;
  }

  Leaf* leaf = static_cast<Leaf*>(n);
  EGW_DCHECK(pos <= leaf->nchars);

  if (leaf->nbytes + text.size() <= kLeafCapacity) {
    size_t tchars = Utf8CountChars(text);
    ApplyLeafInsert(leaf, pos, text, tchars, path_scratch_);
    ShiftOtherCaches(leaf, char_pos, static_cast<ptrdiff_t>(tchars));
    SetEditCache(kInsCache, leaf, char_pos - pos, path_scratch_);
    return;
  }

  // The leaf splits: the slow path below rebuilds metrics bottom-up and may
  // reshape the tree, so the cache cannot survive.
  InvalidateEditCache();
  size_t byte_pos = LeafByteOfChar(leaf, pos);
  Node* new_sibling = nullptr;  // Set if the leaf splits.
  {
    // Split the leaf near the middle (on a scalar boundary), then insert the
    // chunk into whichever half now covers byte_pos. text.size() <= kMaxChunk
    // guarantees it fits after the split.
    Leaf* right = NewLeaf();
    size_t split = leaf->nbytes / 2;
    while (split > 0 && !IsUtf8CharStart(static_cast<uint8_t>(leaf->data[split]))) {
      --split;
    }
    std::memcpy(right->data, leaf->data + split, leaf->nbytes - split);
    right->nbytes = static_cast<uint32_t>(leaf->nbytes - split);
    right->nchars = static_cast<uint32_t>(Utf8CountChars(right->view()));
    leaf->nbytes = static_cast<uint32_t>(split);
    leaf->nchars -= right->nchars;

    Leaf* target = leaf;
    size_t target_byte = byte_pos;
    if (byte_pos > split || (byte_pos == split && leaf->nbytes + text.size() > kLeafCapacity)) {
      target = right;
      target_byte = byte_pos - split;
    }
    EGW_CHECK(target->nbytes + text.size() <= kLeafCapacity);
    std::memmove(target->data + target_byte + text.size(), target->data + target_byte,
                 target->nbytes - target_byte);
    std::memcpy(target->data + target_byte, text.data(), text.size());
    target->nbytes += static_cast<uint32_t>(text.size());
    target->nchars += static_cast<uint32_t>(Utf8CountChars(text));
    new_sibling = right;
  }

  // Walk back up: refresh the touched child's metrics and splice in any new
  // sibling, splitting internals as needed.
  for (size_t level = path_scratch_.size(); level-- > 0;) {
    Internal* in = path_scratch_[level].node;
    int idx = path_scratch_[level].child_idx;
    Metrics m = MetricsOf(in->children[idx].node);
    in->children[idx].bytes = m.bytes;
    in->children[idx].chars = m.chars;
    if (new_sibling == nullptr) {
      continue;
    }
    Metrics sm = MetricsOf(new_sibling);
    Internal::Child entry{new_sibling, sm.bytes, sm.chars};
    if (in->count < kMaxChildren) {
      for (int j = in->count; j > idx + 1; --j) {
        in->children[j] = in->children[j - 1];
      }
      in->children[idx + 1] = entry;
      ++in->count;
      new_sibling = nullptr;
    } else {
      // Split this internal node in half; insert the entry into the correct
      // half, and propagate the new right internal upward.
      Internal* right = NewInternal();
      int half = kMaxChildren / 2;
      right->count = kMaxChildren - half;
      for (int j = 0; j < right->count; ++j) {
        right->children[j] = in->children[half + j];
      }
      in->count = half;
      Internal* target = in;
      int insert_at = idx + 1;
      if (insert_at > half) {
        target = right;
        insert_at -= half;
      }
      for (int j = target->count; j > insert_at; --j) {
        target->children[j] = target->children[j - 1];
      }
      target->children[insert_at] = entry;
      ++target->count;
      new_sibling = right;
    }
  }

  if (new_sibling != nullptr) {
    // The root itself split: grow the tree by one level.
    Internal* new_root = NewInternal();
    Metrics lm = MetricsOf(root_);
    Metrics rm = MetricsOf(new_sibling);
    new_root->count = 2;
    new_root->children[0] = {root_, lm.bytes, lm.chars};
    new_root->children[1] = {new_sibling, rm.bytes, rm.chars};
    root_ = new_root;
  }

  root_bytes_ += text.size();
  root_chars_ += Utf8CountChars(text);
}

void Rope::RemoveAt(size_t char_pos, size_t char_count) {
  EGW_DCHECK(char_pos + char_count <= root_chars_);
  while (char_count > 0) {
    RemoveOnce(char_pos, &char_count);
  }
}

void Rope::RemoveOnce(size_t char_pos, size_t* char_count) {
  EGW_CHECK(root_ != nullptr);

  // Fast path: the removal lies inside a cached leaf and leaves it
  // non-empty (or it is the root leaf) — patch the leaf and subtract the
  // deltas along the cached path, no descent, no structural change. The
  // delete cache is tried first (delete/backspace runs), the insert cache
  // second.
  for (int role : {kDelCache, kInsCache}) {
    EditCache& cache = edit_caches_[role];
    if (cache.valid && char_pos >= cache.leaf_start &&
        char_pos < cache.leaf_start + cache.leaf->nchars) {
      Leaf* leaf = cache.leaf;
      size_t pos = char_pos - cache.leaf_start;
      size_t take = std::min<size_t>(leaf->nchars - pos, *char_count);
      if (take < leaf->nchars || cache.path.empty()) {
        size_t byte_from = LeafByteOfChar(leaf, pos);
        size_t byte_to = LeafByteOfCharAfter(leaf, byte_from, take);
        size_t bytes_removed = byte_to - byte_from;
        std::memmove(leaf->data + byte_from, leaf->data + byte_to, leaf->nbytes - byte_to);
        leaf->nbytes -= static_cast<uint32_t>(bytes_removed);
        leaf->nchars -= static_cast<uint32_t>(take);
        for (const PathStep& step : cache.path) {
          step.node->children[step.child_idx].bytes -= bytes_removed;
          step.node->children[step.child_idx].chars -= take;
        }
        *char_count -= take;
        root_bytes_ -= bytes_removed;
        root_chars_ -= take;
        ShiftOtherCaches(leaf, char_pos, -static_cast<ptrdiff_t>(take));
        if (role != kDelCache) {
          SetEditCache(kDelCache, cache.leaf, cache.leaf_start, cache.path);
        }
        return;
      }
      // Would empty the cached leaf: the structural slow path must handle it.
      break;
    }
  }

  path_scratch_.clear();
  Node* n = root_;
  size_t pos = char_pos;
  while (!n->is_leaf) {
    Internal* in = static_cast<Internal*>(n);
    int i = 0;
    while (i + 1 < in->count && pos >= in->children[i].chars) {
      pos -= in->children[i].chars;
      ++i;
    }
    path_scratch_.push_back({in, i});
    n = in->children[i].node;
  }
  Leaf* leaf = static_cast<Leaf*>(n);
  EGW_CHECK(pos < leaf->nchars);

  size_t take = std::min<size_t>(leaf->nchars - pos, *char_count);
  size_t byte_from = LeafByteOfChar(leaf, pos);
  size_t byte_to = LeafByteOfCharAfter(leaf, byte_from, take);
  size_t bytes_removed = byte_to - byte_from;
  std::memmove(leaf->data + byte_from, leaf->data + byte_to, leaf->nbytes - byte_to);
  leaf->nbytes -= static_cast<uint32_t>(bytes_removed);
  leaf->nchars -= static_cast<uint32_t>(take);
  *char_count -= take;
  root_bytes_ -= bytes_removed;
  root_chars_ -= take;

  bool drop_child = (leaf->nbytes == 0 && !path_scratch_.empty());
  // Any node deletion below (the leaf, a merged sibling, an emptied
  // ancestor, a collapsed root) may strand the cache; track it and only
  // re-establish the cache when the tree's shape survived intact.
  bool structural = drop_child;
  if (drop_child) {
    FreeLeaf(leaf);
  }

  // Fix up ancestors; remove emptied nodes on the way.
  for (size_t level = path_scratch_.size(); level-- > 0;) {
    Internal* in = path_scratch_[level].node;
    int idx = path_scratch_[level].child_idx;
    if (drop_child) {
      for (int j = idx; j + 1 < in->count; ++j) {
        in->children[j] = in->children[j + 1];
      }
      --in->count;
      drop_child = false;
      if (in->count == 0 && level > 0) {
        FreeInternal(in);
        drop_child = true;
        continue;
      }
    } else {
      Metrics m = MetricsOf(in->children[idx].node);
      in->children[idx].bytes = m.bytes;
      in->children[idx].chars = m.chars;
      // Compaction: merge a small leaf into its right sibling's space when
      // both fit in one leaf, so heavily-deleted documents stay compact.
      if (idx + 1 < in->count && in->children[idx].node->is_leaf &&
          in->children[idx + 1].node->is_leaf) {
        Leaf* a = static_cast<Leaf*>(in->children[idx].node);
        Leaf* b = static_cast<Leaf*>(in->children[idx + 1].node);
        if (a->nbytes + b->nbytes <= kLeafCapacity / 2) {
          std::memcpy(a->data + a->nbytes, b->data, b->nbytes);
          a->nbytes += b->nbytes;
          a->nchars += b->nchars;
          in->children[idx].bytes = a->nbytes;
          in->children[idx].chars = a->nchars;
          FreeLeaf(b);
          for (int j = idx + 1; j + 1 < in->count; ++j) {
            in->children[j] = in->children[j + 1];
          }
          --in->count;
          structural = true;
        }
      }
    }
  }

  if (root_ != nullptr && !root_->is_leaf) {
    Internal* in = static_cast<Internal*>(root_);
    if (in->count == 1) {
      root_ = in->children[0].node;
      FreeInternal(in);
      structural = true;
    } else if (in->count == 0) {
      FreeInternal(in);
      root_ = nullptr;
      structural = true;
    }
  }

  if (structural) {
    InvalidateEditCache();
  } else {
    ShiftOtherCaches(leaf, char_pos, -static_cast<ptrdiff_t>(take));
    SetEditCache(kDelCache, leaf, char_pos - pos, path_scratch_);
  }
}

namespace {

void CollectString(const Rope::Node* n, std::string& out) {
  if (n->is_leaf) {
    const Rope::Leaf* l = static_cast<const Rope::Leaf*>(n);
    out.append(l->data, l->nbytes);
    return;
  }
  const Rope::Internal* in = static_cast<const Rope::Internal*>(n);
  for (int i = 0; i < in->count; ++i) {
    CollectString(in->children[i].node, out);
  }
}

}  // namespace

std::string Rope::ToString() const {
  std::string out;
  out.reserve(root_bytes_);
  if (root_ != nullptr) {
    CollectString(root_, out);
  }
  return out;
}

std::string Rope::Substring(size_t char_pos, size_t char_count) const {
  EGW_DCHECK(char_pos + char_count <= root_chars_);
  std::string out;
  const Node* n = root_;
  size_t pos = char_pos;
  // Descend to the starting leaf, then walk leaves left-to-right. Without
  // sibling links we simply re-descend per leaf; ranges are short in
  // practice and this keeps the nodes pointer-free.
  size_t remaining = char_count;
  while (remaining > 0) {
    n = root_;
    size_t p = pos;
    while (!n->is_leaf) {
      const Internal* in = static_cast<const Internal*>(n);
      int i = 0;
      while (i + 1 < in->count && p >= in->children[i].chars) {
        p -= in->children[i].chars;
        ++i;
      }
      n = in->children[i].node;
    }
    const Leaf* l = static_cast<const Leaf*>(n);
    size_t take = std::min<size_t>(l->nchars - p, remaining);
    size_t from = LeafByteOfChar(l, p);
    size_t to = LeafByteOfCharAfter(l, from, take);
    out.append(l->data + from, to - from);
    pos += take;
    remaining -= take;
  }
  return out;
}

uint32_t Rope::CharAt(size_t char_pos) const {
  EGW_DCHECK(char_pos < root_chars_);
  const Node* n = root_;
  size_t pos = char_pos;
  while (!n->is_leaf) {
    const Internal* in = static_cast<const Internal*>(n);
    int i = 0;
    while (i + 1 < in->count && pos >= in->children[i].chars) {
      pos -= in->children[i].chars;
      ++i;
    }
    n = in->children[i].node;
  }
  const Leaf* l = static_cast<const Leaf*>(n);
  size_t byte = LeafByteOfChar(l, pos);
  size_t len;
  return Utf8DecodeAt(l->view(), byte, &len);
}

namespace {

void VisitChunks(const Rope::Node* n, void (*fn)(std::string_view, void*), void* ctx) {
  if (n->is_leaf) {
    const Rope::Leaf* l = static_cast<const Rope::Leaf*>(n);
    fn(l->view(), ctx);
    return;
  }
  const Rope::Internal* in = static_cast<const Rope::Internal*>(n);
  for (int i = 0; i < in->count; ++i) {
    VisitChunks(in->children[i].node, fn, ctx);
  }
}

bool CheckNode(const Rope::Node* n, Metrics* out) {
  if (n->is_leaf) {
    const Rope::Leaf* l = static_cast<const Rope::Leaf*>(n);
    if (l->nbytes > kLeafCapacity) {
      return false;
    }
    if (Utf8CountChars(l->view()) != l->nchars) {
      return false;
    }
    *out = {l->nbytes, l->nchars};
    return true;
  }
  const Rope::Internal* in = static_cast<const Rope::Internal*>(n);
  if (in->count < 1 || in->count > kMaxChildren) {
    return false;
  }
  Metrics total;
  for (int i = 0; i < in->count; ++i) {
    Metrics m;
    if (!CheckNode(in->children[i].node, &m)) {
      return false;
    }
    if (m.bytes != in->children[i].bytes || m.chars != in->children[i].chars) {
      return false;
    }
    total.bytes += m.bytes;
    total.chars += m.chars;
  }
  *out = total;
  return true;
}

}  // namespace

void Rope::ForEachChunk(void (*fn)(std::string_view, void*), void* ctx) const {
  if (root_ != nullptr) {
    VisitChunks(root_, fn, ctx);
  }
}

bool Rope::CheckInvariants() const {
  if (root_ == nullptr) {
    return root_bytes_ == 0 && root_chars_ == 0;
  }
  Metrics m;
  if (!CheckNode(root_, &m)) {
    return false;
  }
  return m.bytes == root_bytes_ && m.chars == root_chars_;
}

}  // namespace egwalker

// egw_cli: a tiny file-based collaborative editor.
//
// Documents live on disk in the columnar event-graph format (with a cached
// text snapshot, so `show` never replays anything). Two people can clone a
// document file, edit their copies independently, and merge — the CLI face
// of the offline-editing workflow.
//
//   egw_cli new   <file> <agent>
//   egw_cli show  <file>
//   egw_cli stats <file>
//   egw_cli ins   <file> <agent> <pos> <text>
//   egw_cli del   <file> <agent> <pos> <count>
//   egw_cli merge <dst-file> <src-file> <agent>
//
// Example session:
//   egw_cli new draft.egw alice
//   egw_cli ins draft.egw alice 0 'Helo'
//   cp draft.egw bob.egw
//   egw_cli ins draft.egw alice 3 l
//   egw_cli ins bob.egw bob 4 '!'
//   egw_cli merge draft.egw bob.egw alice
//   egw_cli show draft.egw          # -> Hello!

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/doc.h"

using namespace egwalker;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: egw_cli new|show|stats|ins|del|merge ... (see source header)\n");
  return 2;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return std::nullopt;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<long>(bytes.size()));
  return static_cast<bool>(f);
}

std::optional<Doc> LoadDoc(const std::string& path, const std::string& agent) {
  auto bytes = ReadFile(path);
  if (!bytes) {
    std::fprintf(stderr, "egw_cli: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  auto doc = Doc::Load(*bytes, agent, &error);
  if (!doc) {
    std::fprintf(stderr, "egw_cli: %s: %s\n", path.c_str(), error.c_str());
  }
  return doc;
}

bool SaveDoc(const std::string& path, const Doc& doc) {
  SaveOptions opts;
  opts.cache_final_doc = true;
  if (!WriteFile(path, doc.Save(opts))) {
    std::fprintf(stderr, "egw_cli: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  std::string cmd = argv[1];
  std::string path = argv[2];

  if (cmd == "new") {
    if (argc != 4) {
      return Usage();
    }
    Doc doc(argv[3]);
    return SaveDoc(path, doc) ? 0 : 1;
  }
  if (cmd == "show") {
    auto doc = LoadDoc(path, "egw-cli-viewer");
    if (!doc) {
      return 1;
    }
    std::printf("%s\n", doc->Text().c_str());
    return 0;
  }
  if (cmd == "stats") {
    auto doc = LoadDoc(path, "egw-cli-viewer");
    if (!doc) {
      return 1;
    }
    std::printf("chars:  %llu\nevents: %llu\nagents: %zu\n",
                static_cast<unsigned long long>(doc->size()),
                static_cast<unsigned long long>(doc->graph().size()),
                doc->graph().agent_count());
    return 0;
  }
  if (cmd == "ins") {
    if (argc != 6) {
      return Usage();
    }
    auto doc = LoadDoc(path, argv[3]);
    if (!doc) {
      return 1;
    }
    uint64_t pos = std::strtoull(argv[4], nullptr, 10);
    if (pos > doc->size()) {
      std::fprintf(stderr, "egw_cli: position %llu beyond end (%llu)\n",
                   static_cast<unsigned long long>(pos),
                   static_cast<unsigned long long>(doc->size()));
      return 1;
    }
    doc->Insert(pos, argv[5]);
    return SaveDoc(path, *doc) ? 0 : 1;
  }
  if (cmd == "del") {
    if (argc != 6) {
      return Usage();
    }
    auto doc = LoadDoc(path, argv[3]);
    if (!doc) {
      return 1;
    }
    uint64_t pos = std::strtoull(argv[4], nullptr, 10);
    uint64_t count = std::strtoull(argv[5], nullptr, 10);
    if (pos + count > doc->size()) {
      std::fprintf(stderr, "egw_cli: range beyond end\n");
      return 1;
    }
    doc->Delete(pos, count);
    return SaveDoc(path, *doc) ? 0 : 1;
  }
  if (cmd == "merge") {
    if (argc != 5) {
      return Usage();
    }
    auto dst = LoadDoc(path, argv[4]);
    auto src = LoadDoc(argv[3], "egw-cli-viewer");
    if (!dst || !src) {
      return 1;
    }
    uint64_t merged = dst->MergeFrom(*src);
    std::printf("merged %llu events; now: %s\n", static_cast<unsigned long long>(merged),
                dst->Text().c_str());
    return SaveDoc(path, *dst) ? 0 : 1;
  }
  return Usage();
}

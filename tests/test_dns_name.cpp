// Unit tests: DNS names and wire encoding (compression, pointers, limits),
// plus randomized differential programs that drive the flat wire-form
// dns::DnsName and the label-list reference in tests/reference_name.h side
// by side. A diverging program delta-debugs itself down to a minimal one.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dns/name.h"
#include "reference_name.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace cd;
using dns::DnsName;

TEST(DnsName, ParseAndFormat) {
  const auto n = DnsName::must_parse("a.b.Example.ORG");
  EXPECT_EQ(n.label_count(), 4u);
  EXPECT_EQ(n.to_string(), "a.b.Example.ORG.");
  EXPECT_EQ(DnsName::must_parse("a.b.example.org.").to_string(),
            "a.b.example.org.");
}

TEST(DnsName, Root) {
  const DnsName root;
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(DnsName::must_parse(".").label_count(), 0u);
  EXPECT_EQ(root.wire_length(), 1u);
}

TEST(DnsName, ParseInvalid) {
  EXPECT_FALSE(DnsName::parse(""));
  EXPECT_FALSE(DnsName::parse("a..b"));
  EXPECT_FALSE(DnsName::parse(std::string(64, 'x') + ".org"));  // label > 63
  // Total name too long: 5 labels of 63 = 320 > 255.
  std::string huge;
  for (int i = 0; i < 5; ++i) huge += std::string(63, 'a') + ".";
  EXPECT_FALSE(DnsName::parse(huge));
}

TEST(DnsName, CaseInsensitiveEquality) {
  EXPECT_EQ(DnsName::must_parse("DNS-Lab.Org"),
            DnsName::must_parse("dns-lab.org"));
  EXPECT_EQ(DnsName::must_parse("A.B.c").hash(),
            DnsName::must_parse("a.b.C").hash());
}

TEST(DnsName, Subdomain) {
  const auto apex = DnsName::must_parse("dns-lab.org");
  EXPECT_TRUE(DnsName::must_parse("x.dns-lab.org").is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(DnsName()));  // everything under root
  EXPECT_FALSE(DnsName::must_parse("dns-lab.com").is_subdomain_of(apex));
  EXPECT_FALSE(DnsName::must_parse("xdns-lab.org").is_subdomain_of(apex));
  EXPECT_FALSE(DnsName::must_parse("org").is_subdomain_of(apex));
}

TEST(DnsName, ParentPrependSuffix) {
  const auto n = DnsName::must_parse("a.b.c");
  EXPECT_EQ(n.parent(), DnsName::must_parse("b.c"));
  EXPECT_EQ(DnsName().parent(), DnsName());
  EXPECT_EQ(n.prepend("x"), DnsName::must_parse("x.a.b.c"));
  EXPECT_EQ(n.suffix(1), DnsName::must_parse("c"));
  EXPECT_EQ(n.suffix(3), n);
  EXPECT_EQ(n.suffix(9), n);
  EXPECT_EQ(n.suffix(0), DnsName());
}

TEST(DnsName, CanonicalOrdering) {
  // Right-to-left label comparison.
  EXPECT_LT(DnsName::must_parse("z.a.org"), DnsName::must_parse("a.b.org"));
  EXPECT_LT(DnsName::must_parse("org"), DnsName::must_parse("a.org"));
  EXPECT_LT(DnsName(), DnsName::must_parse("com"));
}

TEST(DnsName, LabelsAndWire) {
  const auto n = DnsName::must_parse("www.Example.org");
  EXPECT_EQ(n.label(0), "www");
  EXPECT_EQ(n.label(1), "Example");
  EXPECT_EQ(n.label(2), "org");
  const std::vector<std::uint8_t> wire = {3, 'w', 'w', 'w', 7, 'E', 'x', 'a',
                                          'm', 'p', 'l', 'e', 3, 'o', 'r', 'g',
                                          0};
  EXPECT_EQ(std::vector<std::uint8_t>(n.wire().begin(), n.wire().end()), wire);
  EXPECT_TRUE(n.suffix_equals(2, DnsName::must_parse("EXAMPLE.org")));
  EXPECT_FALSE(n.suffix_equals(4, n));
}

TEST(DnsName, FoldsAsciiOnly) {
  // RFC 4343: only A-Z fold. '@'/'[' and '`'/'{' border the letter ranges,
  // and a high byte whose low seven bits spell 'A' is not a letter.
  EXPECT_EQ(DnsName::must_parse("aZ"), DnsName::must_parse("Az"));
  EXPECT_NE(DnsName::must_parse("@"), DnsName::must_parse("`"));
  EXPECT_NE(DnsName::must_parse("["), DnsName::must_parse("{"));
  EXPECT_NE(DnsName::must_parse("\xC1"), DnsName::must_parse("\xE1"));
  EXPECT_NE(DnsName::must_parse("\xC1"), DnsName::must_parse("a"));
}

TEST(DnsName, LongNamesSpillToTheHeap) {
  // 3 x 63 + 61 octets of labels: the longest legal name, 255 wire octets.
  std::string text;
  for (char c : {'a', 'b', 'c'}) text += std::string(62, c) + "X.";
  text += std::string(60, 'd') + "X.";
  const auto n = DnsName::must_parse(text);
  EXPECT_EQ(n.wire_length(), 255u);
  EXPECT_FALSE(DnsName::parse("e." + text));
  const DnsName copy = n;
  DnsName moved = DnsName(copy);
  EXPECT_EQ(moved, n);
  EXPECT_EQ(moved.to_string(), text);
  moved = n.parent();
  EXPECT_EQ(moved, n.suffix(3));
  EXPECT_EQ(n.suffix(3).hash(), dns::SuffixHashes(n).hash(3));
}

TEST(NameWire, EncodeDecodeNoCompression) {
  std::vector<std::uint8_t> wire;
  dns::encode_name(DnsName::must_parse("www.example.org"), wire, nullptr);
  EXPECT_EQ(wire.size(), 1 + 3 + 1 + 7 + 1 + 3 + 1);
  std::size_t off = 0;
  EXPECT_EQ(dns::decode_name(wire, off), DnsName::must_parse("www.example.org"));
  EXPECT_EQ(off, wire.size());
}

TEST(NameWire, CompressionShrinksRepeats) {
  std::vector<std::uint8_t> plain, compressed;
  dns::NameCompressor comp;
  const auto n1 = DnsName::must_parse("a.example.org");
  const auto n2 = DnsName::must_parse("b.example.org");
  dns::encode_name(n1, plain, nullptr);
  dns::encode_name(n2, plain, nullptr);
  dns::encode_name(n1, compressed, &comp);
  dns::encode_name(n2, compressed, &comp);
  EXPECT_LT(compressed.size(), plain.size());

  std::size_t off = 0;
  EXPECT_EQ(dns::decode_name(compressed, off), n1);
  EXPECT_EQ(dns::decode_name(compressed, off), n2);
  EXPECT_EQ(off, compressed.size());
}

TEST(NameWire, FullPointerReuse) {
  dns::NameCompressor comp;
  std::vector<std::uint8_t> wire;
  const auto n = DnsName::must_parse("repeat.example.org");
  dns::encode_name(n, wire, &comp);
  const std::size_t first = wire.size();
  dns::encode_name(n, wire, &comp);
  EXPECT_EQ(wire.size(), first + 2);  // exactly one pointer
  std::size_t off = first;
  EXPECT_EQ(dns::decode_name(wire, off), n);
}

TEST(NameWire, RejectsPointerLoop) {
  // A pointer that points at itself.
  const std::vector<std::uint8_t> wire = {0xC0, 0x00};
  std::size_t off = 0;
  EXPECT_THROW((void)dns::decode_name(wire, off), ParseError);
}

TEST(NameWire, RejectsForwardPointer) {
  const std::vector<std::uint8_t> wire = {0xC0, 0x04, 0x00, 0x00, 0x00};
  std::size_t off = 0;
  EXPECT_THROW((void)dns::decode_name(wire, off), ParseError);
}

TEST(NameWire, RejectsTruncation) {
  std::vector<std::uint8_t> wire;
  dns::encode_name(DnsName::must_parse("abcdef.org"), wire, nullptr);
  wire.resize(wire.size() - 3);
  std::size_t off = 0;
  EXPECT_THROW((void)dns::decode_name(wire, off), ParseError);
}

TEST(NameWire, RandomRoundTripProperty) {
  Rng rng(6);
  static const char* kLabels[] = {"a", "bb", "ccc", "example", "x1",
                                  "0123456789abcdef", "v4", "org"};
  for (int i = 0; i < 500; ++i) {
    std::vector<std::string_view> labels;
    const std::size_t n = 1 + rng.uniform(6);
    for (std::size_t j = 0; j < n; ++j) {
      labels.push_back(kLabels[rng.uniform(8)]);
    }
    const DnsName name = DnsName().prepend(labels);
    std::vector<std::uint8_t> wire;
    dns::NameCompressor comp;
    dns::encode_name(name, wire, &comp);
    std::size_t off = 0;
    ASSERT_EQ(dns::decode_name(wire, off), name);
  }
}

// --- randomized differential programs against the reference ---------------

struct Op {
  enum Kind : std::uint8_t {
    kParse,
    kPrepend,
    kParent,
    kSuffix,
    kFlipCase,
    kCompress,
  };
  Kind kind = kParse;
  std::size_t dst = 0;     // slot written
  std::size_t src = 0;     // slot read
  std::size_t n = 0;       // suffix length / names per message
  std::string text;        // parse input / prepended label
  std::uint64_t seed = 0;  // case flips / message layout
};

const char* kind_name(Op::Kind k) {
  switch (k) {
    case Op::kParse: return "parse";
    case Op::kPrepend: return "prepend";
    case Op::kParent: return "parent";
    case Op::kSuffix: return "suffix";
    case Op::kFlipCase: return "flip_case";
    case Op::kCompress: return "compress";
  }
  return "?";
}

constexpr std::size_t kSlots = 6;

struct Slot {
  DnsName prod;
  dns::ref::DnsName ref;
};

/// Flips the case of letters in `s`, each with probability 1/2.
std::string flip_case(std::string s, std::uint64_t seed) {
  Rng rng(seed);
  for (char& c : s) {
    if (rng.uniform(2) == 0) continue;
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 32);
    else if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + 32);
  }
  return s;
}

/// Every observable of the two models must agree, slot by slot and pair by
/// pair. Returns the first disagreement.
std::optional<std::string> compare_slots(const std::vector<Slot>& slots) {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& a = slots[i];
    const std::string tag = "slot " + std::to_string(i) + ": ";
    if (a.prod.to_string() != a.ref.to_string()) return tag + "to_string";
    if (a.prod.label_count() != a.ref.label_count()) return tag + "labels";
    if (a.prod.wire_length() != a.ref.wire_length()) return tag + "wire_length";
    for (std::size_t k = 0; k < a.prod.label_count(); ++k) {
      if (a.prod.label(k) != a.ref.labels()[k]) return tag + "label";
    }
    std::vector<std::uint8_t> ref_wire;
    cd::ByteWriter w(ref_wire);
    dns::ref::encode_name(a.ref, w, nullptr);
    if (!std::equal(ref_wire.begin(), ref_wire.end(), a.prod.wire().begin(),
                    a.prod.wire().end())) {
      return tag + "uncompressed wire";
    }
    const dns::SuffixHashes hashes(a.prod);
    for (std::size_t n = 0; n <= a.prod.label_count(); ++n) {
      if (hashes.hash(n) != a.prod.suffix(n).hash()) return tag + "suffix hash";
    }
    for (std::size_t j = 0; j < slots.size(); ++j) {
      const Slot& b = slots[j];
      const std::string pair = tag + "vs slot " + std::to_string(j) + ": ";
      const bool eq = a.prod == b.prod;
      if (eq != (a.ref == b.ref)) return pair + "==";
      if (eq && a.prod.hash() != b.prod.hash()) return pair + "hash of equals";
      if ((a.prod < b.prod) != (a.ref < b.ref)) return pair + "<";
      if (a.prod.is_subdomain_of(b.prod) != a.ref.is_subdomain_of(b.ref)) {
        return pair + "is_subdomain_of";
      }
      for (std::size_t n = 0; n <= a.prod.label_count(); ++n) {
        if (a.prod.suffix_equals(n, b.prod) != (a.ref.suffix(n) == b.ref)) {
          return pair + "suffix_equals";
        }
      }
    }
  }
  return std::nullopt;
}

/// Encodes several slots' names into one message through each model's
/// compressor, with filler octets between them (and sometimes a long run
/// that pushes later names past the 0x3FFF pointer limit), demands
/// byte-identical output, then decodes it with both decoders.
std::optional<std::string> compress_and_decode(const std::vector<Slot>& slots,
                                               const Op& op) {
  Rng rng(op.seed);
  std::vector<std::size_t> picks;
  std::vector<std::size_t> fillers;
  for (std::size_t i = 0; i < op.n; ++i) {
    picks.push_back(static_cast<std::size_t>(rng.uniform(kSlots)));
    fillers.push_back(rng.uniform(16) == 0
                          ? 0x3F00 + static_cast<std::size_t>(rng.uniform(512))
                          : static_cast<std::size_t>(rng.uniform(6)));
  }
  std::vector<std::uint8_t> prod_msg, ref_msg;
  cd::ByteWriter pw(prod_msg), rw(ref_msg);
  dns::NameCompressor prod_comp;
  dns::ref::NameCompressor ref_comp;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    pw.fill(fillers[i], 0xAB);
    rw.fill(fillers[i], 0xAB);
    dns::encode_name(slots[picks[i]].prod, pw, &prod_comp);
    dns::ref::encode_name(slots[picks[i]].ref, rw, &ref_comp);
  }
  if (prod_msg != ref_msg) return std::string("compressed wire differs");

  cd::ByteReader pr(prod_msg, "prod"), rr(prod_msg, "ref");
  for (std::size_t i = 0; i < picks.size(); ++i) {
    pr.skip(fillers[i]);
    rr.skip(fillers[i]);
    const DnsName p = dns::decode_name(pr);
    const dns::ref::DnsName r = dns::ref::decode_name(rr);
    if (p.to_string() != r.to_string()) return std::string("decoded text");
    if (!(p == slots[picks[i]].prod)) return std::string("decode round trip");
    if (pr.pos() != rr.pos()) return std::string("decode cursor");
  }
  return std::nullopt;
}

std::optional<std::string> interpret(const std::vector<Op>& ops) {
  std::vector<Slot> slots(kSlots);
  for (std::size_t step = 0; step < ops.size(); ++step) {
    const Op& op = ops[step];
    const Slot& src = slots[op.src];
    Slot& dst = slots[op.dst];
    switch (op.kind) {
      case Op::kParse:
      case Op::kFlipCase: {
        const std::string text = op.kind == Op::kParse
                                     ? op.text
                                     : flip_case(src.ref.to_string(), op.seed);
        const auto p = DnsName::parse(text);
        const auto r = dns::ref::DnsName::parse(text);
        if (p.has_value() != r.has_value()) return "parse validity";
        if (p) dst = Slot{*p, *r};
        break;
      }
      case Op::kPrepend: {
        std::optional<DnsName> p;
        std::optional<dns::ref::DnsName> r;
        try {
          p = src.prod.prepend(op.text);
        } catch (const InvariantError&) {
        }
        try {
          r = src.ref.prepend(op.text);
        } catch (const InvariantError&) {
        }
        if (p.has_value() != r.has_value()) return "prepend validity";
        if (p) dst = Slot{*p, *r};
        break;
      }
      case Op::kParent:
        dst = Slot{src.prod.parent(), src.ref.parent()};
        break;
      case Op::kSuffix:
        dst = Slot{src.prod.suffix(op.n), src.ref.suffix(op.n)};
        break;
      case Op::kCompress:
        if (auto bad = compress_and_decode(slots, op)) return bad;
        break;
    }
    if (auto bad = compare_slots(slots)) {
      return "after op " + std::to_string(step) + ": " + *bad;
    }
  }
  return std::nullopt;
}

/// Labels drawn so that equal-but-for-case names, shared suffixes and the
/// bytes around the A-Z fold range all turn up often.
std::string gen_label(Rng& rng) {
  static const char* kCommon[] = {"a",   "A",   "b",       "ex",     "EX",
                                  "org", "Org", "dns-lab", "DNS-LAB", "*"};
  static const char kAlphabet[] = "aAzZmM09-_*@[`{\xC1\xE1";
  switch (rng.uniform(8)) {
    case 0: return std::string(1 + rng.uniform(63), "xX"[rng.uniform(2)]);
    case 1:
    case 2: {
      std::string l(1 + rng.uniform(6), 'a');
      for (char& c : l) c = kAlphabet[rng.uniform(sizeof(kAlphabet) - 1)];
      return l;
    }
    default: return kCommon[rng.uniform(10)];
  }
}

std::string gen_text(Rng& rng) {
  switch (rng.uniform(20)) {
    case 0: return ".";
    case 1: return "";
    case 2: return "a..b";
    case 3: return std::string(64, 'y') + ".org";  // label too long
    default: break;
  }
  const std::size_t n = rng.uniform(20) == 0 ? 3 + rng.uniform(6)
                                             : 1 + rng.uniform(5);
  std::string text;
  for (std::size_t i = 0; i < n; ++i) {
    if (i) text += '.';
    text += gen_label(rng);
  }
  if (rng.uniform(2) == 0) text += '.';
  return text;
}

std::vector<Op> gen_program(std::uint64_t seed, std::size_t n_ops) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    Op op;
    op.dst = static_cast<std::size_t>(rng.uniform(kSlots));
    op.src = static_cast<std::size_t>(rng.uniform(kSlots));
    const std::uint64_t pick = rng.uniform(100);
    if (pick < 25) {
      op.kind = Op::kParse;
      op.text = gen_text(rng);
    } else if (pick < 50) {
      op.kind = Op::kPrepend;
      op.text = rng.uniform(30) == 0 ? std::string() : gen_label(rng);
    } else if (pick < 60) {
      op.kind = Op::kParent;
    } else if (pick < 70) {
      op.kind = Op::kSuffix;
      op.n = static_cast<std::size_t>(rng.uniform(8));
    } else if (pick < 85) {
      op.kind = Op::kFlipCase;
      op.seed = rng.u64();
    } else {
      op.kind = Op::kCompress;
      op.n = 1 + static_cast<std::size_t>(rng.uniform(8));
      op.seed = rng.u64();
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

bool diverges(const std::vector<Op>& ops) { return interpret(ops).has_value(); }

/// Greedy delta-debugging: repeatedly drop chunks (halving the chunk size)
/// while the program still diverges. Ops name slots, not earlier ops, so
/// any subsequence is still a valid program.
std::vector<Op> shrink(std::vector<Op> ops) {
  for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<Op> candidate;
        candidate.reserve(ops.size() - chunk);
        candidate.insert(candidate.end(), ops.begin(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            ops.begin() + static_cast<std::ptrdiff_t>(start + chunk),
            ops.end());
        if (diverges(candidate)) {
          ops = std::move(candidate);
          removed_any = true;
        } else {
          start += chunk;
        }
      }
    }
  }
  return ops;
}

std::string format_program(const std::vector<Op>& ops) {
  std::ostringstream out;
  for (const Op& op : ops) {
    out << "  " << kind_name(op.kind) << " dst=" << op.dst << " src=" << op.src
        << " n=" << op.n << " text=\"" << op.text << "\" seed=" << op.seed
        << "\n";
  }
  return out.str();
}

TEST(DnsNameProperty, RandomProgramsMatchReferenceExactly) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 99ull, 1337ull, 2020ull}) {
    std::vector<Op> ops = gen_program(seed, 1500);
    if (const auto bad = interpret(ops)) {
      const std::vector<Op> minimal = shrink(std::move(ops));
      FAIL() << "DnsName diverges from reference (" << *bad << "); seed="
             << seed << "; minimal program (" << minimal.size() << " ops, "
             << *interpret(minimal) << "):\n"
             << format_program(minimal);
    }
  }
}

}  // namespace

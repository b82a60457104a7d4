#include "juniper/juniper_parser.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string_view>

#include "frontend/lexer.h"
#include "util/community.h"

namespace campion::juniper {
namespace {

using ir::LineAction;
using ir::Protocol;
using util::Ipv4Address;
using util::IpWildcard;
using util::IpPrefix;

using frontend::ParsePort;
using frontend::ParseU32;
using frontend::Token;
using frontend::TokenKind;

// ---------------------------------------------------------------------------
// Hierarchy tree
// ---------------------------------------------------------------------------

// A statement or block. Its words view the configuration text, and its
// children lie next to each other in the Tree's node arena.
struct Node {
  std::span<const std::string_view> words;
  std::span<const Node> children;
  bool is_block = false;
  int first_line = 0;
  int last_line = 0;

  std::string_view Word(std::size_t i) const {
    return i < words.size() ? words[i] : std::string_view();
  }
  // The first child block/statement whose first word is `name`.
  const Node* Find(std::string_view name) const {
    for (const auto& child : children) {
      if (!child.words.empty() && child.words[0] == name) return &child;
    }
    return nullptr;
  }
};

// The statement hierarchy of a text: the root and the two arenas that every
// node's spans view. Moving a Tree keeps the spans valid; copying would not.
struct Tree {
  Tree() = default;
  Tree(Tree&&) = default;
  Tree(const Tree&) = delete;

  Node root;
  std::vector<std::string_view> words;
  std::vector<Node> nodes;
};

// Builds the Tree in one pass over the token stream. Words and nodes go to
// the two arenas, so the tree costs a few arena growths instead of two
// allocations per node. The builder keeps its own stack of open blocks
// instead of recursing, so nesting depth is bounded by memory, not by the
// thread's stack.
class TreeBuilder {
 public:
  TreeBuilder(std::string_view text, std::vector<std::string>* diagnostics,
              std::string filename)
      : lexer_(text),
        diagnostics_(diagnostics),
        filename_(std::move(filename)) {
    Advance();
  }

  Tree Build() {
    // Statements up to each block's '}', or the end of the text. The root
    // has no '}': stray ones there are skipped, with one diagnostic per run
    // of them so that a text of braces costs no more than a text of
    // statements.
    while (!Done()) {
      if (Peek().kind != TokenKind::kCloseBrace) {
        ParseStatement();
      } else if (!open_.empty()) {
        Close(Peek().line);
        Advance();  // consume '}'
      } else {
        diagnostics_->push_back(filename_ + ":" +
                                std::to_string(Peek().line) +
                                ": unmatched '}'");
        while (!Done() && Peek().kind == TokenKind::kCloseBrace) Advance();
      }
    }
    while (!open_.empty()) Close(last_line_);
    Tree tree;
    tree.root.is_block = true;
    tree.root.first_line = 1;
    tree.root.last_line = last_line_;
    const Extent root_children = Flush(0);
    // The arenas are final: turn every node's extents into spans.
    tree.words = std::move(words_);
    tree.nodes = std::move(nodes_);
    const std::span<const std::string_view> words(tree.words);
    const std::span<const Node> nodes(tree.nodes);
    for (std::size_t i = 0; i < tree.nodes.size(); ++i) {
      tree.nodes[i].words = words.subspan(extents_[i].words.begin,
                                          extents_[i].words.size);
      tree.nodes[i].children = nodes.subspan(extents_[i].children.begin,
                                             extents_[i].children.size);
    }
    tree.root.children =
        nodes.subspan(root_children.begin, root_children.size);
    return tree;
  }

  bool unterminated_string() const { return lexer_.unterminated_string(); }

 private:
  // Where a node's words or children lie in their arena. Spans cannot be
  // taken while the arenas still grow.
  struct Extent {
    std::size_t begin = 0;
    std::size_t size = 0;
  };
  struct Extents {
    Extent words;
    Extent children;
  };
  // A parsed node whose siblings are still being parsed.
  struct Pending {
    Node node;
    Extents extents;
  };
  // A block whose '}' has not been read yet. Its children so far are
  // pending_[children_begin..].
  struct Open {
    Extent words;
    int first_line = 0;
    std::size_t children_begin = 0;
  };

  bool Done() const { return !has_token_; }
  const Token& Peek() const { return token_; }
  void Advance() {
    has_token_ = lexer_.Next(token_);
    if (has_token_) last_line_ = token_.line;
  }

  // Appends pending_[begin..] to the node arena and returns where they now
  // lie. A block's children are collected on pending_, since their own
  // descendants are parsed in between, and then appended together.
  Extent Flush(std::size_t begin) {
    const Extent extent{nodes_.size(), pending_.size() - begin};
    for (std::size_t i = begin; i < pending_.size(); ++i) {
      nodes_.push_back(pending_[i].node);
      extents_.push_back(pending_[i].extents);
    }
    pending_.resize(begin);
    return extent;
  }

  // Ends the innermost open block at `last_line`: it becomes a pending
  // child of the block around it.
  void Close(int last_line) {
    const Open open = open_.back();
    open_.pop_back();
    Pending block;
    block.node.is_block = true;
    block.node.first_line = open.first_line;
    block.node.last_line = last_line;
    block.extents.words = open.words;
    block.extents.children = Flush(open.children_begin);
    pending_.push_back(block);
  }

  // Reads one statement's words, up to ';', '{' (which opens a block) or a
  // '}' that it leaves for the caller.
  void ParseStatement() {
    const int first_line = Peek().line;
    int last_line = 0;
    // A statement's words are all read before its children, so they are
    // contiguous in the arena.
    Extent words{words_.size(), 0};
    bool is_block = false;
    bool ended = false;
    while (!ended && !Done()) {
      const Token& token = Peek();
      switch (token.kind) {
        case TokenKind::kOpenBrace:
          Advance();
          is_block = true;
          ended = true;
          break;
        case TokenKind::kSemicolon:
          last_line = token.line;
          Advance();
          ended = true;
          break;
        case TokenKind::kOpenBracket:
        case TokenKind::kCloseBracket:
          // Brackets only group list words; the words join the statement.
          Advance();
          break;
        case TokenKind::kCloseBrace:
          // Missing semicolon before '}': tolerate.
          diagnostics_->push_back(filename_ + ":" +
                                  std::to_string(token.line) +
                                  ": expected ';' before '}'");
          last_line = token.line;
          ended = true;
          break;
        case TokenKind::kWord:
          words_.push_back(token.text);
          last_line = token.line;
          Advance();
          break;
      }
    }
    words.size = words_.size() - words.begin;
    if (is_block) {
      open_.push_back({words, first_line, pending_.size()});
    } else if (words.size != 0) {
      Pending statement;
      statement.node.first_line = first_line;
      statement.node.last_line = last_line;
      statement.extents.words = words;
      pending_.push_back(statement);
    }
  }

  frontend::JunosLexer lexer_;
  Token token_;  // The next token, when has_token_.
  bool has_token_ = false;
  int last_line_ = 1;  // The line of the last token read.
  std::vector<std::string_view> words_;
  std::vector<Node> nodes_;
  std::vector<Extents> extents_;  // Parallel to nodes_.
  std::vector<Pending> pending_;  // Children of the root and open blocks.
  std::vector<Open> open_;        // Innermost last.
  std::vector<std::string>* diagnostics_;
  std::string filename_;
};

// ---------------------------------------------------------------------------
// IR conversion
// ---------------------------------------------------------------------------

// Areas may be written as integers ("0") or dotted quads ("0.0.0.0").
std::optional<std::uint32_t> ParseArea(std::string_view token) {
  if (token.find('.') != std::string_view::npos) {
    auto ip = Ipv4Address::Parse(token);
    if (!ip) return std::nullopt;
    return ip->bits();
  }
  return ParseU32(token);
}

std::optional<std::uint8_t> ParseIpProtocol(std::string_view token) {
  if (token == "icmp") return ir::kProtoIcmp;
  if (token == "tcp") return ir::kProtoTcp;
  if (token == "udp") return ir::kProtoUdp;
  if (token == "icmp6" || token == "icmpv6") return ir::kProtoIcmpv6;
  if (token == "ospf") return ir::kProtoOspf;
  if (auto n = ParseU32(token); n && *n <= 255) {
    return static_cast<std::uint8_t>(*n);
  }
  return std::nullopt;
}

class Converter {
 public:
  Converter(const frontend::LineIndex& lines, std::string filename)
      : filename_(std::move(filename)), lines_(lines) {
    result_.config.vendor = ir::Vendor::kJuniper;
    result_.config.source_file = filename_;
  }

  ParseResult Run(const Node& root) {
    if (const Node* system = root.Find("system")) ConvertSystem(*system);
    if (const Node* interfaces = root.Find("interfaces")) {
      ConvertInterfaces(*interfaces);
    }
    if (const Node* options = root.Find("routing-options")) {
      ConvertRoutingOptions(*options);
    }
    if (const Node* options = root.Find("policy-options")) {
      ConvertPolicyOptions(*options);
    }
    if (const Node* firewall = root.Find("firewall")) {
      ConvertFirewall(*firewall);
    }
    if (const Node* protocols = root.Find("protocols")) {
      if (const Node* ospf = protocols->Find("ospf")) ConvertOspf(*ospf);
      if (const Node* bgp = protocols->Find("bgp")) ConvertBgp(*bgp);
    }
    return std::move(result_);
  }

 private:
  ir::RouterConfig& config() { return result_.config; }

  // Records "file:line: <message><detail>" at the node's first line.
  void Diagnose(const Node& node, std::string_view message,
                std::string_view detail = {}) {
    std::string diagnostic =
        filename_ + ":" + std::to_string(node.first_line) + ": ";
    diagnostic += message;
    diagnostic += detail;
    result_.diagnostics.push_back(std::move(diagnostic));
  }

  util::SourceSpan Span(const Node& node) const {
    return {filename_, node.first_line, node.last_line,
            lines_.SpanText(node.first_line, node.last_line)};
  }

  // --- system ---------------------------------------------------------------

  void ConvertSystem(const Node& system) {
    if (const Node* hostname = system.Find("host-name")) {
      config().hostname = hostname->Word(1);
    }
  }

  // --- interfaces -------------------------------------------------------------

  void ConvertInterfaces(const Node& interfaces) {
    for (const Node& physical : interfaces.children) {
      if (!physical.is_block || physical.words.empty()) continue;
      const std::string_view base_name = physical.words[0];
      bool disabled = physical.Find("disable") != nullptr;
      bool has_unit = false;
      for (const Node& unit : physical.children) {
        if (unit.Word(0) != "unit" || !unit.is_block) continue;
        has_unit = true;
        ir::Interface iface;
        iface.name = base_name;
        iface.name += '.';
        iface.name += unit.Word(1);
        iface.shutdown = disabled || unit.Find("disable") != nullptr;
        iface.span = Span(unit);
        if (const Node* family = unit.Find("family")) {
          if (family->Word(1) == "inet") {
            if (const Node* address = family->Find("address")) {
              auto prefix = IpPrefix::Parse(address->Word(1));
              if (prefix && prefix->family() == util::AddressFamily::kIpv4) {
                // Keep the host address; the subnet is derived from it.
                iface.address = Ipv4Address::Parse(
                    address->Word(1).substr(0, address->Word(1).find('/')));
                iface.prefix_length = prefix->length();
              } else {
                Diagnose(*address, "bad interface address");
              }
            }
          }
        }
        config().interfaces.push_back(std::move(iface));
      }
      if (!has_unit) {
        ir::Interface iface;
        iface.name = base_name;
        iface.shutdown = disabled;
        iface.span = Span(physical);
        config().interfaces.push_back(std::move(iface));
      }
    }
  }

  // --- routing-options ----------------------------------------------------------

  void ConvertRoutingOptions(const Node& options) {
    if (const Node* asn = options.Find("autonomous-system")) {
      if (auto value = ParseU32(asn->Word(1))) local_as_ = *value;
    }
    if (const Node* router_id = options.Find("router-id")) {
      router_id_ = Ipv4Address::Parse(router_id->Word(1));
    }
    if (const Node* static_block = options.Find("static")) {
      for (const Node& route : static_block->children) {
        if (route.Word(0) != "route") continue;
        ConvertStaticRoute(route);
      }
    }
  }

  void ConvertStaticRoute(const Node& route) {
    auto prefix = IpPrefix::Parse(route.Word(1));
    if (!prefix || prefix->family() != util::AddressFamily::kIpv4) {
      return Diagnose(route, "bad static route prefix");
    }
    ir::StaticRoute r;
    r.prefix = *prefix;
    r.admin_distance = 5;  // JunOS static route default preference.
    r.span = Span(route);
    auto apply = [&](const Node& item) {
      if (item.Word(0) == "next-hop") {
        if (auto ip = Ipv4Address::Parse(item.Word(1))) {
          r.next_hop = *ip;
        } else {
          r.next_hop_interface = item.Word(1);
        }
      } else if (item.Word(0) == "preference") {
        if (auto pref = ParseU32(item.Word(1))) {
          r.admin_distance = static_cast<int>(*pref);
        }
      } else if (item.Word(0) == "tag") {
        if (auto tag = ParseU32(item.Word(1))) r.tag = *tag;
      }
    };
    if (route.is_block) {
      for (const Node& item : route.children) apply(item);
    } else if (route.words.size() >= 4) {
      // Inline form: route P next-hop X;
      Node inline_item;
      inline_item.words = route.words.subspan(2);
      apply(inline_item);
    }
    config().static_routes.push_back(std::move(r));
  }

  // --- policy-options --------------------------------------------------------------

  void ConvertPolicyOptions(const Node& options) {
    // Two passes: named lists first, so policy-statements can resolve
    // communities defined later in the file.
    for (const Node& child : options.children) {
      std::string_view kind = child.Word(0);
      if (kind == "prefix-list") {
        ConvertPrefixList(child);
      } else if (kind == "community") {
        ConvertCommunity(child);
      } else if (kind == "as-path") {
        // as-path NAME "regex";
        ir::AsPathList list;
        list.name = child.Word(1);
        list.span = Span(child);
        list.entries.push_back(
            {LineAction::kPermit, std::string(child.Word(2)), Span(child)});
        config().as_path_lists[list.name] = std::move(list);
      } else if (kind != "policy-statement") {
        Diagnose(child, "unrecognized policy-options item: ", kind);
      }
    }
    for (const Node& child : options.children) {
      if (child.Word(0) == "policy-statement") ConvertPolicyStatement(child);
    }
  }

  void ConvertPrefixList(const Node& list_node) {
    ir::PrefixList list;
    list.name = list_node.Word(1);
    list.span = Span(list_node);
    // JunOS prefix-lists accept either family syntactically; the IR keeps
    // the families apart, so the first entry fixes the list's family and
    // entries of the other family are diagnosed.
    bool family_set = false;
    for (const Node& entry : list_node.children) {
      auto prefix = util::IpPrefix::Parse(entry.Word(0));
      if (!prefix) {
        Diagnose(entry, "bad prefix-list entry");
        continue;
      }
      if (!family_set) {
        list.family = prefix->family();
        family_set = true;
      } else if (prefix->family() != list.family) {
        Diagnose(entry, "prefix-list entry mixes address families");
        continue;
      }
      // JunOS prefix-lists match exactly (no length window) when used in a
      // `from prefix-list` condition.
      list.entries.push_back({LineAction::kPermit,
                              util::PrefixRange(*prefix), Span(entry)});
    }
    config().prefix_lists[list.name] = std::move(list);
  }

  void ConvertCommunity(const Node& community_node) {
    // community NAME members [ 10:10 10:11 ];  — all members must match.
    ir::CommunityList list;
    list.name = community_node.Word(1);
    list.span = Span(community_node);
    ir::CommunityListEntry entry;
    entry.action = LineAction::kPermit;
    entry.span = Span(community_node);
    std::size_t i = 2;
    if (community_node.Word(i) == "members") ++i;
    for (; i < community_node.words.size(); ++i) {
      auto community = util::Community::Parse(community_node.words[i]);
      if (!community) {
        Diagnose(community_node, "unsupported community member: ",
                 community_node.words[i]);
        continue;
      }
      entry.all_of.push_back(*community);
    }
    list.entries.push_back(std::move(entry));
    config().community_lists[list.name] = std::move(list);
  }

  void ConvertPolicyStatement(const Node& policy_node) {
    ir::RouteMap map;
    map.name = policy_node.Word(1);
    map.span = Span(policy_node);
    // JunOS BGP policies fall through to the protocol default, which for
    // the BGP contexts Campion checks is accept.
    map.default_action = ir::ClauseAction::kPermit;

    int sequence = 10;
    for (const Node& term : policy_node.children) {
      if (term.Word(0) == "term") {
        map.clauses.push_back(ConvertTerm(term, term.Word(1), sequence));
        sequence += 10;
      } else if (term.Word(0) == "from" || term.Word(0) == "then") {
        // An anonymous term at the policy level.
        Node wrapper;
        wrapper.is_block = true;
        wrapper.first_line = term.first_line;
        wrapper.last_line = term.last_line;
        wrapper.children = std::span<const Node>(&term, 1);
        map.clauses.push_back(ConvertTerm(wrapper, "", sequence));
        sequence += 10;
      } else {
        Diagnose(term, "unrecognized policy-statement item");
      }
    }
    config().route_maps[map.name] = std::move(map);
  }

  ir::RouteMapClause ConvertTerm(const Node& term, std::string_view name,
                                 int sequence) {
    ir::RouteMapClause clause;
    clause.term_name = name;
    clause.sequence = sequence;
    clause.span = Span(term);
    clause.action = ir::ClauseAction::kFallThrough;  // Until accept/reject.

    if (const Node* from = term.Find("from")) {
      ConvertFrom(*from, clause);
    }
    const Node* then_node = term.Find("then");
    if (then_node != nullptr) {
      if (then_node->is_block) {
        for (const Node& action : then_node->children) {
          ApplyThen(action, clause);
        }
      } else {
        // "then accept;" inline form.
        Node inline_action;
        inline_action.words = then_node->words.subspan(1);
        inline_action.first_line = then_node->first_line;
        inline_action.last_line = then_node->last_line;
        ApplyThen(inline_action, clause);
      }
    }
    return clause;
  }

  void ConvertFrom(const Node& from, ir::RouteMapClause& clause) {
    // Prefix conditions (prefix-list and route-filter) OR together; other
    // condition kinds AND with them.
    ir::RouteMapMatch prefix_match;
    prefix_match.kind = ir::RouteMapMatch::Kind::kPrefixList;
    prefix_match.span = Span(from);

    auto handle = [&](const Node& condition) {
      std::string_view kind = condition.Word(0);
      if (kind == "prefix-list") {
        prefix_match.names.emplace_back(condition.Word(1));
      } else if (kind == "prefix-list-filter") {
        // prefix-list-filter NAME exact|orlonger|longer: the named list's
        // prefixes with the mode's length window applied to each entry.
        prefix_match.names.emplace_back(ConvertPrefixListFilter(condition));
      } else if (kind == "route-filter") {
        prefix_match.names.emplace_back(ConvertRouteFilter(condition));
      } else if (kind == "community") {
        ir::RouteMapMatch match;
        match.kind = ir::RouteMapMatch::Kind::kCommunityList;
        match.span = Span(condition);
        for (std::size_t i = 1; i < condition.words.size(); ++i) {
          match.names.emplace_back(condition.words[i]);
        }
        clause.matches.push_back(std::move(match));
      } else if (kind == "as-path") {
        ir::RouteMapMatch match;
        match.kind = ir::RouteMapMatch::Kind::kAsPathList;
        match.span = Span(condition);
        for (std::size_t i = 1; i < condition.words.size(); ++i) {
          match.names.emplace_back(condition.words[i]);
        }
        clause.matches.push_back(std::move(match));
      } else if (kind == "protocol") {
        ir::RouteMapMatch match;
        match.kind = ir::RouteMapMatch::Kind::kProtocol;
        match.span = Span(condition);
        std::string_view protocol = condition.Word(1);
        if (protocol == "static") {
          match.protocol = Protocol::kStatic;
        } else if (protocol == "direct") {
          match.protocol = Protocol::kConnected;
        } else if (protocol == "ospf") {
          match.protocol = Protocol::kOspf;
        } else if (protocol == "bgp") {
          match.protocol = Protocol::kBgp;
        } else {
          Diagnose(condition, "unsupported protocol: ", protocol);
          return;
        }
        clause.matches.push_back(std::move(match));
      } else if (kind == "tag") {
        ir::RouteMapMatch match;
        match.kind = ir::RouteMapMatch::Kind::kTag;
        match.span = Span(condition);
        if (auto tag = ParseU32(condition.Word(1))) match.value = *tag;
        clause.matches.push_back(std::move(match));
      } else if (kind == "metric") {
        ir::RouteMapMatch match;
        match.kind = ir::RouteMapMatch::Kind::kMetric;
        match.span = Span(condition);
        if (auto metric = ParseU32(condition.Word(1))) {
          match.value = *metric;
        }
        clause.matches.push_back(std::move(match));
      } else {
        Diagnose(condition, "unsupported from condition: ", kind);
      }
    };
    if (from.is_block) {
      for (const Node& condition : from.children) handle(condition);
    } else {
      Node inline_condition;
      inline_condition.words = from.words.subspan(1);
      inline_condition.first_line = from.first_line;
      inline_condition.last_line = from.last_line;
      handle(inline_condition);
    }
    if (!prefix_match.names.empty()) {
      clause.matches.push_back(std::move(prefix_match));
    }
  }

  // Lowers a prefix-list-filter condition to an anonymous prefix list whose
  // entries carry the filter mode's length windows. Returns its name.
  std::string ConvertPrefixListFilter(const Node& condition) {
    std::string name =
        "__prefix-list-filter-" + std::to_string(route_filter_count_++);
    ir::PrefixList lowered;
    lowered.name = name;
    lowered.span = Span(condition);
    const ir::PrefixList* source =
        config().FindPrefixList(std::string(condition.Word(1)));
    if (source == nullptr) {
      Diagnose(condition, "prefix-list-filter references undefined list: ",
               condition.Word(1));
      config().prefix_lists[name] = std::move(lowered);
      return name;
    }
    lowered.family = source->family;
    const int max_len = util::MaxPrefixLength(source->family);
    std::string_view mode = condition.Word(2);
    for (const auto& entry : source->entries) {
      int base = entry.range.prefix().length();
      int low = base;
      int high = base;
      if (mode == "orlonger") {
        high = max_len;
      } else if (mode == "longer") {
        low = base + 1;
        high = max_len;
      } else if (mode != "exact" && !mode.empty()) {
        Diagnose(condition, "unsupported prefix-list-filter mode: ", mode);
      }
      lowered.entries.push_back(
          {entry.action, util::PrefixRange(entry.range.prefix(), low, high),
           Span(condition)});
    }
    config().prefix_lists[name] = std::move(lowered);
    return name;
  }

  // Lowers a route-filter condition to an anonymous prefix list and returns
  // its name. (Multiple route-filters in one term OR together here; JunOS's
  // longest-match tie-breaking between them is not modeled — see DESIGN.md.)
  std::string ConvertRouteFilter(const Node& condition) {
    std::string name =
        "__route-filter-" + std::to_string(route_filter_count_++);
    ir::PrefixList list;
    list.name = name;
    list.span = Span(condition);
    auto prefix = util::IpPrefix::Parse(condition.Word(1));
    if (!prefix) {
      Diagnose(condition, "bad route-filter prefix");
      config().prefix_lists[name] = std::move(list);
      return name;
    }
    list.family = prefix->family();
    const int max_len = util::MaxPrefixLength(prefix->family());
    std::string_view mode = condition.Word(2);
    int low = prefix->length();
    int high = prefix->length();
    if (mode == "exact" || mode.empty()) {
      // Exact: [len, len].
    } else if (mode == "orlonger") {
      high = max_len;
    } else if (mode == "longer") {
      low = prefix->length() + 1;
      high = max_len;
    } else if (mode == "upto") {
      // upto /N
      std::string_view bound = condition.Word(3);
      if (auto n = ParseU32(bound.starts_with("/") ? bound.substr(1)
                                                      : bound)) {
        high = static_cast<int>(*n);
      }
    } else if (mode == "prefix-length-range") {
      // prefix-length-range /A-/B
      std::string_view range = condition.Word(3);
      auto dash = range.find('-');
      if (dash != std::string_view::npos) {
        std::string_view a = range.substr(0, dash);
        std::string_view b = range.substr(dash + 1);
        if (a.starts_with("/")) a.remove_prefix(1);
        if (b.starts_with("/")) b.remove_prefix(1);
        if (auto low_n = ParseU32(a)) low = static_cast<int>(*low_n);
        if (auto high_n = ParseU32(b)) high = static_cast<int>(*high_n);
      }
    } else {
      Diagnose(condition, "unsupported route-filter mode: ", mode);
    }
    list.entries.push_back({LineAction::kPermit,
                            util::PrefixRange(*prefix, low, high),
                            Span(condition)});
    config().prefix_lists[name] = std::move(list);
    return name;
  }

  void ApplyThen(const Node& action, ir::RouteMapClause& clause) {
    std::string_view kind = action.Word(0);
    if (kind == "accept") {
      clause.action = ir::ClauseAction::kPermit;
    } else if (kind == "reject") {
      clause.action = ir::ClauseAction::kDeny;
    } else if (kind == "next" && action.Word(1) == "term") {
      clause.action = ir::ClauseAction::kFallThrough;
    } else if (kind == "local-preference") {
      ir::RouteMapSet set;
      set.kind = ir::RouteMapSet::Kind::kLocalPreference;
      set.span = Span(action);
      if (auto value = ParseU32(action.Word(1))) set.value = *value;
      clause.sets.push_back(std::move(set));
    } else if (kind == "metric") {
      ir::RouteMapSet set;
      set.kind = ir::RouteMapSet::Kind::kMetric;
      set.span = Span(action);
      if (auto value = ParseU32(action.Word(1))) set.value = *value;
      clause.sets.push_back(std::move(set));
    } else if (kind == "tag") {
      ir::RouteMapSet set;
      set.kind = ir::RouteMapSet::Kind::kTag;
      set.span = Span(action);
      if (auto value = ParseU32(action.Word(1))) set.value = *value;
      clause.sets.push_back(std::move(set));
    } else if (kind == "next-hop") {
      ir::RouteMapSet set;
      set.span = Span(action);
      if (action.Word(1) == "self") {
        set.kind = ir::RouteMapSet::Kind::kNextHopSelf;
        clause.sets.push_back(std::move(set));
      } else if (auto ip = Ipv4Address::Parse(action.Word(1))) {
        set.kind = ir::RouteMapSet::Kind::kNextHop;
        set.next_hop = *ip;
        clause.sets.push_back(std::move(set));
      } else {
        Diagnose(action, "unsupported next-hop: ", action.Word(1));
      }
    } else if (kind == "community") {
      // community add|set|delete NAME — the named community's members.
      ir::RouteMapSet set;
      set.span = Span(action);
      std::string_view operation = action.Word(1);
      if (operation == "add") {
        set.kind = ir::RouteMapSet::Kind::kCommunityAdd;
      } else if (operation == "set") {
        set.kind = ir::RouteMapSet::Kind::kCommunitySet;
      } else if (operation == "delete") {
        set.kind = ir::RouteMapSet::Kind::kCommunityDelete;
      } else {
        Diagnose(action, "unsupported community operation: ", operation);
        return;
      }
      std::string_view list_name = action.Word(2);
      if (const ir::CommunityList* list =
              config().FindCommunityList(std::string(list_name))) {
        for (const auto& entry : list->entries) {
          set.communities.insert(set.communities.end(), entry.all_of.begin(),
                                 entry.all_of.end());
        }
      } else if (auto community = util::Community::Parse(list_name)) {
        set.communities.push_back(*community);
      } else {
        Diagnose(action, "unknown community: ", list_name);
      }
      clause.sets.push_back(std::move(set));
    } else {
      Diagnose(action, "unsupported then action: ", kind);
    }
  }

  // --- firewall ---------------------------------------------------------------------

  void ConvertFirewall(const Node& firewall) {
    for (const Node& child : firewall.children) {
      if (child.Word(0) == "family") {
        util::AddressFamily family = util::AddressFamily::kIpv4;
        if (child.Word(1) == "inet6") {
          family = util::AddressFamily::kIpv6;
        } else if (child.Word(1) != "inet") {
          Diagnose(child, "unsupported firewall family: ", child.Word(1));
          continue;
        }
        for (const Node& filter : child.children) {
          if (filter.Word(0) != "filter") continue;
          ConvertFilter(filter, family);
        }
      } else if (child.Word(0) == "filter") {
        // A filter directly under `firewall` is family inet.
        ConvertFilter(child, util::AddressFamily::kIpv4);
      }
    }
  }

  void ConvertFilter(const Node& filter_node, util::AddressFamily family) {
    ir::Acl acl;
    acl.name = filter_node.Word(1);
    acl.family = family;
    acl.span = Span(filter_node);
    for (const Node& term : filter_node.children) {
      if (term.Word(0) != "term") continue;
      ConvertFilterTerm(term, acl);
    }
    config().acls[acl.name] = std::move(acl);
  }

  void ConvertFilterTerm(const Node& term, ir::Acl& acl) {
    const util::AddressFamily family = acl.family;
    std::vector<IpWildcard> sources;
    std::vector<IpWildcard> destinations;
    std::vector<std::optional<std::uint8_t>> protocols;
    std::vector<ir::PortRange> src_ports;
    std::vector<ir::PortRange> dst_ports;
    std::optional<std::uint8_t> icmp_type;
    bool established = false;
    LineAction action = LineAction::kPermit;
    bool has_action = false;

    // A condition none of whose operands parses drops the whole term:
    // ignoring it would widen the term to every value of its field. Bad
    // operands are diagnosed where they fail, a missing one in `require`.
    bool dropped = false;
    auto require = [&](const Node& condition, bool parsed) {
      if (parsed) return;
      if (condition.words.size() < 2) {
        Diagnose(condition, "missing operand: ", condition.Word(0));
      }
      dropped = true;
    };

    // source-address/destination-address operands are prefix-shaped in both
    // families ("10.0.0.0/8", "2001:db8::/32"), written after the keyword or
    // as the block JunOS itself prints, `source-address { 10.0.0.0/8; }`,
    // whose entries OR together. The IR cannot express an `except` entry,
    // so one drops the term.
    auto parse_address = [&](const Node& condition,
                             std::vector<IpWildcard>& out, const char* what) {
      bool parsed = false;
      auto entry = [&](const Node& at, std::string_view operand,
                       std::string_view qualifier) {
        auto prefix = IpPrefix::Parse(operand);
        if (qualifier == "except") {
          Diagnose(at, "unsupported except: ", operand);
          dropped = true;
        } else if (prefix && prefix->family() == family) {
          out.push_back(IpWildcard(*prefix));
          parsed = true;
        } else {
          Diagnose(at, std::string("bad ") + what);
        }
      };
      if (!condition.is_block) {
        entry(condition, condition.Word(1), condition.Word(2));
      } else if (condition.children.empty()) {
        Diagnose(condition, "missing operand: ", condition.Word(0));
      }
      for (const Node& item : condition.children) {
        entry(item, item.Word(0), item.Word(1));
      }
      if (!parsed) dropped = true;
    };

    // Port operands are numbers, service names or low-high ranges of them.
    auto parse_ports = [&](const Node& condition,
                           std::vector<ir::PortRange>& ports) {
      bool parsed = false;
      for (std::size_t i = 1; i < condition.words.size(); ++i) {
        std::string_view word = condition.words[i];
        std::optional<std::uint16_t> low = ParsePort(word);
        std::optional<std::uint16_t> high = low;
        auto dash = word.find('-');
        if (!low && dash != std::string_view::npos) {
          low = ParsePort(word.substr(0, dash));
          high = ParsePort(word.substr(dash + 1));
        }
        if (low && high) {
          ports.push_back({*low, *high});
          parsed = true;
        } else {
          Diagnose(condition, "bad port: ", word);
        }
      }
      require(condition, parsed);
    };

    if (const Node* from = term.Find("from")) {
      for (const Node& condition : from->children) {
        std::string_view kind = condition.Word(0);
        if (kind == "source-address") {
          parse_address(condition, sources, "source-address");
        } else if (kind == "destination-address") {
          parse_address(condition, destinations, "destination-address");
        } else if (kind == "protocol" || kind == "next-header") {
          bool parsed = false;
          for (std::size_t i = 1; i < condition.words.size(); ++i) {
            if (auto protocol = ParseIpProtocol(condition.words[i])) {
              protocols.push_back(protocol);
              parsed = true;
            } else {
              Diagnose(condition, "unsupported protocol: ",
                       condition.words[i]);
            }
          }
          require(condition, parsed);
        } else if (kind == "source-port") {
          parse_ports(condition, src_ports);
        } else if (kind == "destination-port" || kind == "port") {
          parse_ports(condition, dst_ports);
        } else if (kind == "tcp-established") {
          // Matches established TCP flows.
          // (protocol tcp is usually also present in the term.)
          established = true;
        } else if (kind == "icmp-type" || kind == "icmpv6-type") {
          const bool v6 = family == util::AddressFamily::kIpv6;
          if (auto type = ParseU32(condition.Word(1)); type && *type <= 255) {
            icmp_type = static_cast<std::uint8_t>(*type);
          } else if (condition.Word(1) == "echo-request") {
            icmp_type = v6 ? 128 : 8;
          } else if (condition.Word(1) == "echo-reply") {
            icmp_type = v6 ? 129 : 0;
          } else {
            Diagnose(condition, "bad icmp-type: ", condition.Word(1));
            dropped = true;
          }
        } else {
          Diagnose(condition, "unsupported filter condition: ", kind);
        }
      }
    }
    if (dropped) return;
    const Node* then_node = term.Find("then");
    if (then_node != nullptr) {
      auto apply = [&](std::string_view word) {
        if (word == "accept") {
          action = LineAction::kPermit;
          has_action = true;
        } else if (word == "discard" || word == "reject") {
          action = LineAction::kDeny;
          has_action = true;
        }
      };
      if (then_node->is_block) {
        for (const Node& item : then_node->children) apply(item.Word(0));
      } else if (then_node->words.size() >= 2) {
        apply(then_node->Word(1));
      }
    }
    if (!has_action) {
      // A firewall term without a terminating action accepts by default
      // when it matches (count/log-only terms are rare in our subset).
      action = LineAction::kPermit;
    }

    const util::SourceSpan span = Span(term);
    if (sources.empty()) sources.push_back(IpWildcard::AnyOf(family));
    if (destinations.empty()) {
      destinations.push_back(IpWildcard::AnyOf(family));
    }
    if (protocols.empty()) protocols.push_back(std::nullopt);

    // One IR line per (source, destination, protocol) combination; ORs
    // within an attribute become multiple lines with the same action.
    for (const auto& src : sources) {
      for (const auto& dst : destinations) {
        for (const auto& protocol : protocols) {
          ir::AclLine line;
          line.action = action;
          line.protocol = protocol;
          line.src = src;
          line.dst = dst;
          line.src_ports = src_ports;
          line.dst_ports = dst_ports;
          line.icmp_type = icmp_type;
          line.established = established;
          line.span = span;
          acl.lines.push_back(std::move(line));
        }
      }
    }
  }

  // --- protocols/ospf ------------------------------------------------------------------

  void ConvertOspf(const Node& ospf) {
    config().ospf.emplace();
    config().ospf->span = Span(ospf);
    if (const Node* reference = ospf.Find("reference-bandwidth")) {
      std::string_view value = reference->Word(1);
      std::uint32_t multiplier = 1;
      if (!value.empty() && (value.back() == 'g' || value.back() == 'G')) {
        multiplier = 1000;
        value.remove_suffix(1);
      } else if (!value.empty() &&
                 (value.back() == 'm' || value.back() == 'M')) {
        value.remove_suffix(1);
      }
      if (auto bw = ParseU32(value)) {
        config().ospf->reference_bandwidth_mbps = *bw * multiplier;
      }
    }
    if (const Node* export_policy = ospf.Find("export")) {
      // OSPF export policy implements route redistribution in JunOS. The
      // redistributed protocols are in the policy's match conditions; we
      // record a redistribution entry per protocol the policy matches, or
      // a generic static redistribution when unknown.
      const std::string policy_name(export_policy->Word(1));
      ir::Redistribution redist;
      redist.route_map = policy_name;
      redist.span = Span(*export_policy);
      std::vector<Protocol> from = RedistributedProtocols(policy_name);
      if (from.empty()) from.push_back(Protocol::kStatic);
      for (Protocol protocol : from) {
        redist.from = protocol;
        config().ospf->redistributions.push_back(redist);
      }
    }
    for (const Node& area : ospf.children) {
      if (area.Word(0) != "area") continue;
      auto area_id = ParseArea(area.Word(1));
      for (const Node& iface_node : area.children) {
        if (iface_node.Word(0) != "interface") continue;
        std::string_view name = iface_node.Word(1);
        ir::Interface* iface = nullptr;
        for (auto& candidate : config().interfaces) {
          if (candidate.name == name) {
            iface = &candidate;
            break;
          }
        }
        if (iface == nullptr) {
          // OSPF on an interface not declared under `interfaces`.
          config().interfaces.push_back({});
          iface = &config().interfaces.back();
          iface->name = name;
          iface->span = Span(iface_node);
        }
        iface->ospf_enabled = true;
        iface->ospf_area = area_id;
        if (iface_node.is_block) {
          if (const Node* metric = iface_node.Find("metric")) {
            if (auto cost = ParseU32(metric->Word(1))) {
              iface->ospf_cost = *cost;
            }
          }
          if (iface_node.Find("passive") != nullptr) {
            iface->ospf_passive = true;
          }
        }
      }
    }
  }

  // The protocols matched by `from protocol ...` conditions of a policy —
  // used to map a JunOS OSPF export policy onto redistribution entries.
  std::vector<Protocol> RedistributedProtocols(const std::string& policy) {
    std::vector<Protocol> protocols;
    const ir::RouteMap* map = config().FindRouteMap(policy);
    if (map == nullptr) return protocols;
    for (const auto& clause : map->clauses) {
      for (const auto& match : clause.matches) {
        if (match.kind == ir::RouteMapMatch::Kind::kProtocol) {
          if (std::find(protocols.begin(), protocols.end(),
                        match.protocol) == protocols.end()) {
            protocols.push_back(match.protocol);
          }
        }
      }
    }
    return protocols;
  }

  // --- protocols/bgp --------------------------------------------------------------------

  void ConvertBgp(const Node& bgp) {
    config().bgp.emplace();
    config().bgp->span = Span(bgp);
    config().bgp->asn = local_as_;
    config().bgp->router_id = router_id_;
    for (const Node& network : bgp.children) {
      // Dialect extension mirroring Cisco `network` statements (see
      // DESIGN.md and the unparser).
      if (network.Word(0) != "network") continue;
      auto prefix = IpPrefix::Parse(network.Word(1));
      if (prefix && prefix->family() == util::AddressFamily::kIpv4) {
        config().bgp->networks.push_back(*prefix);
      } else {
        Diagnose(network, "bad bgp network");
      }
    }
    for (const Node& group : bgp.children) {
      if (group.Word(0) != "group") continue;
      bool internal = false;
      if (const Node* type = group.Find("type")) {
        internal = type->Word(1) == "internal";
      }
      std::uint32_t group_peer_as = internal ? local_as_ : 0;
      if (const Node* peer_as = group.Find("peer-as")) {
        if (auto asn = ParseU32(peer_as->Word(1))) group_peer_as = *asn;
      }
      std::string group_import, group_export;
      if (const Node* import_node = group.Find("import")) {
        group_import = import_node->Word(1);
      }
      if (const Node* export_node = group.Find("export")) {
        group_export = export_node->Word(1);
      }
      bool cluster = group.Find("cluster") != nullptr;

      for (const Node& neighbor_node : group.children) {
        if (neighbor_node.Word(0) != "neighbor") continue;
        auto ip = Ipv4Address::Parse(neighbor_node.Word(1));
        if (!ip) {
          Diagnose(neighbor_node, "bad neighbor address");
          continue;
        }
        ir::BgpNeighbor neighbor;
        neighbor.ip = *ip;
        neighbor.remote_as = group_peer_as;
        neighbor.import_policy = group_import;
        neighbor.export_policy = group_export;
        neighbor.route_reflector_client = cluster;
        // JunOS propagates communities to all BGP neighbors by default.
        neighbor.send_community = true;
        neighbor.span = Span(neighbor_node);
        if (neighbor_node.is_block) {
          if (const Node* peer_as = neighbor_node.Find("peer-as")) {
            if (auto asn = ParseU32(peer_as->Word(1))) {
              neighbor.remote_as = *asn;
            }
          }
          if (const Node* import_node = neighbor_node.Find("import")) {
            neighbor.import_policy = import_node->Word(1);
          }
          if (const Node* export_node = neighbor_node.Find("export")) {
            neighbor.export_policy = export_node->Word(1);
          }
          if (const Node* description = neighbor_node.Find("description")) {
            neighbor.description = description->Word(1);
          }
        }
        config().bgp->neighbors.push_back(std::move(neighbor));
      }
    }
  }

  std::string filename_;
  const frontend::LineIndex& lines_;
  std::uint32_t local_as_ = 0;
  std::optional<Ipv4Address> router_id_;
  int route_filter_count_ = 0;
  ParseResult result_;
};

}  // namespace

ParseResult ParseJuniperConfig(const std::string& text,
                               const std::string& filename) {
  std::vector<std::string> diagnostics;
  TreeBuilder builder(text, &diagnostics, filename);
  const Tree tree = builder.Build();
  if (builder.unterminated_string()) {
    // Lexical diagnostics lead: an unterminated string is the last token.
    diagnostics.insert(diagnostics.begin(),
                       filename + ": unterminated string literal");
  }
  const frontend::LineIndex lines(text);
  Converter converter(lines, filename);
  ParseResult result = converter.Run(tree.root);
  result.lines = lines.size();
  result.diagnostics.insert(result.diagnostics.begin(), diagnostics.begin(),
                            diagnostics.end());
  return result;
}

}  // namespace campion::juniper

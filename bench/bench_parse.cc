// The parse layer on the generated router of the oneshot_equivalent
// workload (96 interfaces, 128 static routes, 48 route maps, 32 ACLs),
// unparsed once per vendor: vendor detection, the JunOS lexer alone, and
// a whole LoadConfig (detection, parse, line count) for each vendor. Every
// benchmark reports the bytes of configuration text it reads per second.

#include <string>

#include "bench/bench_util.h"
#include "cisco/cisco_unparser.h"
#include "frontend/lexer.h"
#include "frontend/loader.h"
#include "gen/router_gen.h"
#include "juniper/juniper_unparser.h"

namespace {

using campion::frontend::DetectVendor;
using campion::frontend::LoadConfig;

struct RouterTexts {
  std::string cisco;
  std::string juniper;
};

const RouterTexts& Texts() {
  static const RouterTexts texts = [] {
    campion::gen::RouterGenOptions options;
    options.interfaces = 96;
    options.static_routes = 128;
    options.route_maps = 48;
    options.acls = 32;
    const campion::ir::RouterConfig config =
        campion::gen::GenerateRouterConfig(options);
    return RouterTexts{campion::cisco::UnparseCiscoConfig(config),
                       campion::juniper::UnparseJuniperConfig(config)};
  }();
  return texts;
}

// Arg 0 reads the Cisco text, arg 1 the JunOS text.
const std::string& TextOf(const benchmark::State& state) {
  return state.range(0) == 0 ? Texts().cisco : Texts().juniper;
}

void SetBytes(benchmark::State& state, const std::string& text) {
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void PrintTexts() {
  std::cout << "generated router: Cisco " << Texts().cisco.size()
            << " bytes, JunOS " << Texts().juniper.size() << " bytes\n";
}

void BM_DetectVendor(benchmark::State& state) {
  const std::string& text = TextOf(state);
  for (auto _ : state) benchmark::DoNotOptimize(DetectVendor(text));
  SetBytes(state, text);
  state.SetLabel(state.range(0) == 0 ? "cisco" : "juniper");
}
BENCHMARK(BM_DetectVendor)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_JunosLexer(benchmark::State& state) {
  const std::string& text = Texts().juniper;
  for (auto _ : state) {
    campion::frontend::JunosLexer lexer(text);
    campion::frontend::Token token;
    std::size_t tokens = 0;
    while (lexer.Next(token)) ++tokens;
    benchmark::DoNotOptimize(tokens);
  }
  SetBytes(state, text);
}
BENCHMARK(BM_JunosLexer)->Unit(benchmark::kMicrosecond);

void BM_LoadConfigCisco(benchmark::State& state) {
  const std::string& text = Texts().cisco;
  for (auto _ : state) benchmark::DoNotOptimize(LoadConfig(text, "r.cfg"));
  SetBytes(state, text);
}
BENCHMARK(BM_LoadConfigCisco)->Unit(benchmark::kMicrosecond);

void BM_LoadConfigJuniper(benchmark::State& state) {
  const std::string& text = Texts().juniper;
  for (auto _ : state) benchmark::DoNotOptimize(LoadConfig(text, "r.conf"));
  SetBytes(state, text);
}
BENCHMARK(BM_LoadConfigJuniper)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return campion::benchutil::RunBench(
      argc, argv, "Parse layer: generated router, both vendors", PrintTexts);
}

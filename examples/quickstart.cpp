// Quickstart: compare two router configurations and print every behavioral
// difference Campion finds, with header and text localization.
//
//   ./quickstart <cisco-config> <juniper-config>
//
// With no arguments it runs on the paper's Figure 1 configurations
// (examples/configs/fig1_cisco.cfg and fig1_juniper.cfg), reproducing the
// output of Table 2 and Table 4.

#include <iostream>
#include <string>

#include "core/config_diff.h"
#include "frontend/loader.h"

namespace {

// Locates the bundled example configs relative to the binary when run from
// the build tree, falling back to the source-tree path.
std::string DefaultConfig(const std::string& name) {
  for (const std::string& prefix :
       {std::string("examples/configs/"), std::string("../examples/configs/"),
        std::string("../../examples/configs/")}) {
    std::string path = prefix + name;
    if (FILE* f = fopen(path.c_str(), "r")) {
      fclose(f);
      return path;
    }
  }
  return "examples/configs/" + name;
}

}  // namespace

int main(int argc, char** argv) {
  std::string cisco_path =
      argc > 1 ? argv[1] : DefaultConfig("fig1_cisco.cfg");
  std::string juniper_path =
      argc > 2 ? argv[2] : DefaultConfig("fig1_juniper.cfg");

  campion::frontend::LoadResult cisco;
  campion::frontend::LoadResult juniper;
  try {
    cisco = campion::frontend::LoadConfigFile(cisco_path,
                                              campion::ir::Vendor::kCisco);
    juniper = campion::frontend::LoadConfigFile(juniper_path,
                                                campion::ir::Vendor::kJuniper);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  for (const auto& diagnostic : cisco.diagnostics) {
    std::cerr << "warning: " << diagnostic << "\n";
  }
  for (const auto& diagnostic : juniper.diagnostics) {
    std::cerr << "warning: " << diagnostic << "\n";
  }

  std::cout << "Comparing " << cisco.config.hostname << " ("
            << cisco_path << ") with " << juniper.config.hostname << " ("
            << juniper_path << ")\n\n";

  campion::core::DiffReport report =
      campion::core::ConfigDiff(cisco.config, juniper.config);
  std::cout << report.Render();
  std::cout << "Total: " << report.entries.size() << " reported item(s)\n";
  return report.Equivalent() ? 0 : 2;
}

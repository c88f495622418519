// Fig. 7(a): construction time T_c vs |O| for Basic / ICR / IC. Paper
// shape: Basic blows up (97 hours at 50K in the paper); ICR is far
// cheaper; IC is the cheapest. Basic is run only on the smallest sweep
// sizes here and skipped (with a note) beyond, exactly because of the
// behaviour this figure demonstrates.
#include "bench_common.h"

int main() {
  using namespace uvd;
  bench::PrintBanner("Fig. 7(a): T_c vs |O| for Basic / ICR / IC",
                     "UV-index construction time, uniform data");

  const auto sweep = bench::SizeSweep();
  const size_t basic_cap = sweep[1];  // Basic only for the two smallest sizes
  std::printf("%10s %14s %14s %14s\n", "|O|", "Basic(s)", "ICR(s)", "IC(s)");
  for (size_t n : sweep) {
    datagen::DatasetOptions opts;
    opts.count = n;
    opts.seed = 42;
    double seconds[3] = {-1, -1, -1};
    const core::BuildMethod methods[3] = {core::BuildMethod::kBasic,
                                          core::BuildMethod::kICR,
                                          core::BuildMethod::kIC};
    for (int m = 0; m < 3; ++m) {
      if (methods[m] == core::BuildMethod::kBasic && n > basic_cap) continue;
      Stats stats;
      core::UVDiagramOptions options;
      options.method = methods[m];
      bench::BuildDiagram(datagen::GenerateUniform(opts), datagen::DomainFor(opts),
                          options, &stats, &seconds[m]);
    }
    auto cell = [&](double s) {
      static char buf[32];
      if (s < 0) {
        std::snprintf(buf, sizeof(buf), "%14s", "(skipped)");
      } else {
        std::snprintf(buf, sizeof(buf), "%14.2f", s);
      }
      return buf;
    };
    std::printf("%10zu %s", n, cell(seconds[0]));
    std::printf(" %s", cell(seconds[1]));
    std::printf(" %s\n", cell(seconds[2]));
  }
  std::printf("\nBasic grows superlinearly (every object against all others);\n"
              "it is skipped beyond |O|=%zu — the paper reports 97 hours at 50K.\n",
              basic_cap);
  return 0;
}

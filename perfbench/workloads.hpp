#pragma once

#include "bench.hpp"

namespace perfbench {

void run_postmortem(Bench& b);
void run_live_follow(Bench& b);
void run_fleet(Bench& b);

} // namespace perfbench

// Forwarding header: the paper-flow helpers live in perf/paper_flow.h. This
// path stays because perfbench/table2_check.cpp includes it from bench/,
// and perfbench is kept frozen so benchmark runs compare across commits.
#pragma once
#include "perf/paper_flow.h"

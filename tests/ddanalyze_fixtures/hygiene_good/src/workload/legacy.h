#pragma once  // ddanalyze: guard-ok(vendored header keeps its own style)
// GOOD: a header whose missing guard is waived on its first line.

int LegacyRows();

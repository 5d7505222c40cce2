// BAD: #pragma once instead of the canonical guard.
#pragma once

int Once();

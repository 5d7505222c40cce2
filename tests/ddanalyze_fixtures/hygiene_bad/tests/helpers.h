// BAD outside src/: tests/ headers need the canonical guard too.
#pragma once

int Helper();

// BAD: src/mystery/ is not a declared layer.
#ifndef DAREDEVIL_SRC_MYSTERY_WIDGET_H_
#define DAREDEVIL_SRC_MYSTERY_WIDGET_H_

struct Widget {
  int w = 0;
};

#endif  // DAREDEVIL_SRC_MYSTERY_WIDGET_H_

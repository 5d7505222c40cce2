// BAD: a guard that does not follow DAREDEVIL_<PATH>_H_.
#ifndef TABLE_H
#define TABLE_H

int Rows();

#endif  // TABLE_H

/* Peak resident set size of the waited-for children, for the CLI
   workloads whose processes are gone before /proc can be read. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}

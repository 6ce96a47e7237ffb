# cmake -DBIN=<bench binary> -DDIR=<work dir> -P list_writes_no_report.cmake
#
# Runs BIN --benchmark_list_tests in DIR, emptied first, and fails unless it
# exits 0, lists at least one benchmark and leaves no BENCH_*.json behind.
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${BIN}" --benchmark_list_tests
                WORKING_DIRECTORY "${DIR}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --benchmark_list_tests exited ${rc}")
endif()
if(NOT out MATCHES "BM_")
  message(FATAL_ERROR "no benchmark listed:\n${out}")
endif()
file(GLOB reports "${DIR}/BENCH_*.json")
if(reports)
  message(FATAL_ERROR "listing wrote a report: ${reports}")
endif()

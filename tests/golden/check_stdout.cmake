# Runs one deterministic binary and byte-compares its stdout with a golden
# file committed next to this script:
#
#   cmake -DBIN=<binary> -DARGS="<flags>" -DGOLDEN=<file> [-DDROP=<regex>]
#         -P check_stdout.cmake
#
# The RMALOCK_* environment knobs that reshape a campaign are cleared first,
# so the run sees only its flags. With DROP, every stdout line holding a
# match of the regex is removed before the compare (and from a rewritten
# golden): it names the rows of an otherwise deterministic binary that
# measure wall clock. A mismatch prints a unified diff and fails; with
# RMALOCK_REGEN_GOLDEN set the golden is rewritten instead.
foreach(knob SEED PS JOBS QUICK SMOKE TRACE_DIR)
  unset(ENV{RMALOCK_${knob}})
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()
if(DEFINED DROP)
  string(REGEX REPLACE "[^\n]*(${DROP})[^\n]*\n" "" actual "${actual}")
endif()

if(DEFINED ENV{RMALOCK_REGEN_GOLDEN})
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  file(WRITE "${actual_file}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${actual_file}")
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN} "
                      "(RMALOCK_REGEN_GOLDEN=1 rewrites it)")
endif()

# Passes only when a program refuses its input before doing any work: the
# command exits 1, writes nothing to stdout, and writes exactly one line to
# stderr, which contains EXPECT.
#
#   cmake -DPROG=path/to/program "-DARGS=--flag value ..." \
#         "-DEXPECT=--flag: needs a value" -P expect_refusal.cmake
#
# ARGS is split like a shell command line. The environment (REQBLOCK_AUDIT,
# REQBLOCK_TRACE, ...) passes through to the program.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR "exit status '${code}', expected 1\nstderr: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "stdout is not empty:\n${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not say '${EXPECT}':\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1)
  message(FATAL_ERROR "stderr holds ${lines} lines, expected one:\n${err}")
endif()

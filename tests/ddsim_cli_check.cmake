# Runs ddsim_cli with the ;-separated ARGS and fails unless it exits with
# EXPECT_CODE and, when EXPECT_MSG is non-empty, prints it on stderr.
#   cmake -DCLI=<ddsim_cli> -DARGS=<a;b> -DEXPECT_CODE=<n> [-DEXPECT_MSG=<s>]
#         -P ddsim_cli_check.cmake
execute_process(COMMAND ${CLI} ${ARGS}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "ddsim_cli ${ARGS}: exit ${code}, expected ${EXPECT_CODE}\n${err}")
endif()
if(NOT EXPECT_MSG STREQUAL "")
  string(FIND "${err}" "${EXPECT_MSG}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "ddsim_cli ${ARGS}: stderr lacks '${EXPECT_MSG}':\n${err}")
  endif()
endif()

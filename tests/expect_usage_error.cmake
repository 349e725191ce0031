# Runs the command given after `--` and passes only if it exits with status 1
# within TIMEOUT seconds and its stderr matches the regex MESSAGE:
#
#   cmake -DMESSAGE=<regex> [-DTIMEOUT=<s>] -P expect_usage_error.cmake -- <cmd> <args>...
#
# A command that hangs is killed at the timeout and fails the check.
if(NOT DEFINED TIMEOUT)
  set(TIMEOUT 5)
endif()
set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} TIMEOUT ${TIMEOUT}
                RESULT_VARIABLE status ERROR_VARIABLE stderr
                OUTPUT_QUIET)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'\n${stderr}")
endif()
if(NOT stderr MATCHES "${MESSAGE}")
  message(FATAL_ERROR "stderr does not match '${MESSAGE}':\n${stderr}")
endif()
message(STATUS "exit 1: ${stderr}")

# Guard script run as a ctest: fails when any file under src/ reads a
# CCSQL_NO_* environment variable.  Production keeps one path per job; an
# alternative engine worth keeping is a differential oracle under tests/,
# not a process-wide switch.  Deployment settings (CCSQL_JOBS, CCSQL_TRACE*,
# CCSQL_METRICS) do not match the pattern.
# Expects -DSRC_DIR=...
file(GLOB_RECURSE sources "${SRC_DIR}/*")
set(hits "")
foreach(path ${sources})
  file(STRINGS "${path}" lines REGEX "getenv\\(\"CCSQL_NO_")
  foreach(line ${lines})
    string(APPEND hits "${path}: ${line}\n")
  endforeach()
endforeach()
if(NOT hits STREQUAL "")
  message(FATAL_ERROR
    "process-wide A/B switches read from the environment (move the "
    "alternative into a tests/ oracle instead):\n${hits}")
endif()

# The library tree invokes ${CMAKE_SOURCE_DIR}/cmake/gen_build_info.cmake;
# under the perfbench project that resolves here, so forward to the
# repository's generator.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/gen_build_info.cmake)
